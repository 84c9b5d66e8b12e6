"""Synthetic traffic-like series with realistic channel correlations.

Flow follows a daily sinusoid whose phase shifts as the rush hour sweeps
outward from node 0 along graph edges, scaled down on weekends, holidays
and bad-weather days. Speed falls linearly with flow plus noise, occupancy
rises linearly with flow plus noise, so the generated channels reproduce
the negative flow/speed and positive flow/occupancy correlations seen in
real detector data. Everything is drawn from one seeded generator, so a
seed pins the output bytes exactly.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

import numpy as np

from .data import (
    DEFAULT_CHANNEL_NAMES,
    DEFAULT_EXTERNAL_FIELDS,
    SignalDataset,
    save_dataset,
)
from .errors import ValidationError
from .graphs import GraphSpec

TOPOLOGIES = ("ring", "grid", "random")

MIN_NODES = 2
MIN_SLOTS = 64

# daily flow profile and per-day scaling
FLOW_BASE = 230.0
FLOW_AMPLITUDE = 150.0
FLOW_NOISE_STD = 10.0
PHASE_PER_HOP = 0.35
WEEKEND_FACTOR = 0.65
HOLIDAY_FACTOR = 0.55
HOLIDAY_CYCLE = 19
HOLIDAY_OFFSET = 11

WEATHER_PROBS = (0.6, 0.25, 0.05, 0.1)
WEATHER_FACTORS = (1.0, 0.88, 0.7, 0.95)

# linear channel couplings
SPEED_MAX = 68.0
SPEED_SLOPE = 0.12
SPEED_NOISE_STD = 2.5
OCCUPANCY_SLOPE = 0.0016
OCCUPANCY_NOISE_STD = 0.012

EDGE_DISTANCE_RANGE = (0.8, 1.25)


def _topology_edges(
    topology: str, n_nodes: int, rng: np.random.Generator
) -> list[tuple[int, int, float]]:
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def connect(a: int, b: int) -> None:
        key = (min(a, b), max(a, b))
        if a != b and key not in seen:
            seen.add(key)
            pairs.append(key)

    if topology == "ring":
        for i in range(n_nodes):
            connect(i, (i + 1) % n_nodes)
    elif topology == "grid":
        cols = int(np.ceil(np.sqrt(n_nodes)))
        for i in range(n_nodes):
            r, c = divmod(i, cols)
            if c + 1 < cols and i + 1 < n_nodes:
                connect(i, i + 1)
            if i + cols < n_nodes:
                connect(i, i + cols)
    elif topology == "random":
        for i in range(1, n_nodes):
            connect(i, int(rng.integers(i)))
        for a in range(n_nodes):
            for b in range(a + 1, n_nodes):
                if (a, b) not in seen and rng.uniform() < 0.15:
                    connect(a, b)
    else:
        raise ValidationError(f"unknown topology {topology!r}, expected one of {TOPOLOGIES}")

    lo, hi = EDGE_DISTANCE_RANGE
    return [(a, b, float(rng.uniform(lo, hi))) for a, b in pairs]


def _hops_from_root(n_nodes: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """Breadth-first hop counts from node 0; unreachable nodes keep hop 0."""
    neighbors: list[list[int]] = [[] for _ in range(n_nodes)]
    for a, b, _ in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    hops = np.zeros(n_nodes)
    visited = {0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nxt in neighbors[node]:
            if nxt not in visited:
                visited.add(nxt)
                hops[nxt] = hops[node] + 1
                queue.append(nxt)
    return hops


def build_synthetic(
    seed: int,
    n_nodes: int,
    n_slots: int,
    topology: str = "ring",
    interval_minutes: int = 5,
) -> SignalDataset:
    """Generate the in-memory dataset; see the module docstring for the recipe."""
    if n_nodes < MIN_NODES:
        raise ValidationError(f"need at least {MIN_NODES} nodes, got {n_nodes}")
    if n_slots < MIN_SLOTS:
        raise ValidationError(f"need at least {MIN_SLOTS} slots, got {n_slots}")
    if interval_minutes < 1 or 1440 % interval_minutes != 0:
        raise ValidationError(f"interval_minutes must divide a day, got {interval_minutes}")

    rng = np.random.default_rng(seed)
    edges = _topology_edges(topology, n_nodes, rng)
    graph = GraphSpec(n_nodes=n_nodes, edges=tuple(edges), directed=False)
    phase = PHASE_PER_HOP * _hops_from_root(n_nodes, edges)

    slots_per_day = 1440 // interval_minutes
    n_days = int(np.ceil(n_slots / slots_per_day))
    slots = np.arange(n_slots)
    day_index = slots // slots_per_day
    day_fraction = (slots % slots_per_day) / slots_per_day

    day_names = np.full(n_days, "weekday", dtype=object)
    day_factor = np.ones(n_days)
    for d in range(n_days):
        if d % HOLIDAY_CYCLE == HOLIDAY_OFFSET:
            day_names[d], day_factor[d] = "holiday", HOLIDAY_FACTOR
        elif d % 7 in (5, 6):
            day_names[d], day_factor[d] = "weekend", WEEKEND_FACTOR
    weather_index = rng.choice(len(WEATHER_PROBS), size=n_days, p=WEATHER_PROBS)
    weather_factor = np.asarray(WEATHER_FACTORS)[weather_index]
    scale = (day_factor * weather_factor)[day_index]

    profile = FLOW_BASE + FLOW_AMPLITUDE * np.sin(
        2.0 * np.pi * day_fraction[:, None] - phase[None, :]
    )
    flow = scale[:, None] * profile + rng.normal(0.0, FLOW_NOISE_STD, size=(n_slots, n_nodes))
    flow = np.clip(flow, 0.0, None)
    speed = SPEED_MAX - SPEED_SLOPE * flow + rng.normal(
        0.0, SPEED_NOISE_STD, size=(n_slots, n_nodes)
    )
    occupancy = np.clip(
        OCCUPANCY_SLOPE * flow + rng.normal(0.0, OCCUPANCY_NOISE_STD, size=(n_slots, n_nodes)),
        0.0,
        None,
    )
    # quantize to the container's storage precision up front so the built
    # dataset is identical to what load_dataset returns after a save
    signals = np.stack([flow, speed, occupancy], axis=2).astype(np.float32).astype(np.float64)

    temperature = np.clip(
        0.5
        + 0.25 * np.sin(2.0 * np.pi * day_fraction - 0.5 * np.pi)
        + 0.15 * np.sin(2.0 * np.pi * day_index / 365.0)
        + rng.normal(0.0, 0.02, size=n_slots),
        0.0,
        1.0,
    )

    # weather draws index the weather field's categories, so they are its codes
    externals = np.column_stack([
        DEFAULT_EXTERNAL_FIELDS[0].encode(day_names[day_index].tolist()),
        weather_index[day_index],
        temperature,
    ])

    return SignalDataset(
        signals=signals,
        graph=graph,
        interval_minutes=interval_minutes,
        channel_names=DEFAULT_CHANNEL_NAMES,
        node_ids=tuple(f"n{i:03d}" for i in range(n_nodes)),
        external_fields=DEFAULT_EXTERNAL_FIELDS,
        externals=externals,
    )


def channel_correlations(dataset: SignalDataset) -> dict[str, float]:
    """Pearson correlation of each non-target channel against channel 0."""
    flat = dataset.signals.reshape(-1, dataset.n_channels)
    out = {}
    for c in range(1, dataset.n_channels):
        out[dataset.channel_names[c]] = float(np.corrcoef(flat[:, 0], flat[:, c])[0, 1])
    return out


def generate_synthetic(
    out_dir: str | Path,
    seed: int,
    n_nodes: int,
    n_slots: int,
    topology: str = "ring",
    interval_minutes: int = 5,
) -> SignalDataset:
    """Generate and persist a dataset directory; returns the in-memory copy."""
    dataset = build_synthetic(seed, n_nodes, n_slots, topology, interval_minutes)
    save_dataset(dataset, out_dir)
    return dataset
