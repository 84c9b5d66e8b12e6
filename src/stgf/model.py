"""Forward pass of the two-view channel-wise graph forecaster.

Per input time slot, each observation channel is pushed separately through
a stack of graph convolutions (one shared stack per spatial view), the
per-channel outputs are recombined with trainable elementwise weights, the
two views are summed, and the fused node features drive a per-node LSTM
whose weights are shared across nodes. A compact encoding of calendar and
weather covariates is concatenated to the final hidden state before the
linear prediction head.

A forward pass takes a batch of windows as a block of distinct slots plus
an index of each window's slots into it. Slots and channels are batch
axes of one convolution stack per view, so a batch costs one pass, and a
slot that several windows read is convolved once.

All functions here record onto a caller-supplied tape; nothing mutates
parameters. Forward passes are deterministic given parameter values.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Node, Parameter, Tape
from .errors import ShapeError, ValidationError
from .graphs import adaptive_adjacency, init_node_embedding

ABLATIONS = ("full", "local-only", "global-only", "no-channelwise")
VIEWS = ("local", "global")
LSTM_GATES = ("f", "i", "c", "o")
LSTM_GATE_ACT = {"f": "sigmoid", "i": "sigmoid", "c": "tanh", "o": "sigmoid"}

# width of each categorical covariate's embedding rows
EXTERNAL_EMBED_WIDTH = 4


@dataclass
class ModelConfig:
    """Architecture hyperparameters plus the dataset geometry they must match."""

    n_nodes: int
    n_channels: int = 3
    window: int = 3
    gcn_dims: tuple[int, ...] = (16, 32, 64)
    lstm_layers: int = 2
    lstm_hidden: int = 256
    embed_dim: int = 10
    external_cardinalities: tuple[int, ...] = (3, 4)
    external_continuous: int = 1
    external_hidden: int = 8
    ablation: str = "full"

    def __post_init__(self):
        self.gcn_dims = tuple(int(d) for d in self.gcn_dims)
        self.external_cardinalities = tuple(int(c) for c in self.external_cardinalities)
        if self.n_nodes < 1 or self.n_channels < 1 or self.window < 1:
            raise ValidationError("node count, channel count and window length must be >= 1")
        if not self.gcn_dims or any(d < 1 for d in self.gcn_dims):
            raise ValidationError(f"gcn_dims must be nonempty positive, got {self.gcn_dims}")
        if self.lstm_layers < 1 or self.lstm_hidden < 1:
            raise ValidationError("lstm_layers and lstm_hidden must be >= 1")
        if self.embed_dim < 1 or self.external_hidden < 1:
            raise ValidationError("embed_dim and external_hidden must be >= 1")
        if any(c < 1 for c in self.external_cardinalities) or self.external_continuous < 0:
            raise ValidationError("invalid external feature layout")
        if self.ablation not in ABLATIONS:
            raise ValidationError(f"unknown ablation {self.ablation!r}, expected one of {ABLATIONS}")

    # -- derived layout ------------------------------------------------------

    @property
    def external_dim(self) -> int:
        return sum(self.external_cardinalities) + self.external_continuous

    @property
    def feature_dim(self) -> int:
        return self.gcn_dims[-1]

    @property
    def channelwise(self) -> bool:
        return self.ablation != "no-channelwise"

    @property
    def active_views(self) -> tuple[str, ...]:
        if self.ablation == "local-only":
            return ("local",)
        if self.ablation == "global-only":
            return ("global",)
        return VIEWS

    def gcn_layer_dims(self) -> list[tuple[int, int]]:
        first_in = 1 if self.channelwise else self.n_channels
        dims = (first_in,) + self.gcn_dims
        return list(zip(dims[:-1], dims[1:]))

    def lstm_input_dims(self) -> list[int]:
        return [self.feature_dim] + [self.lstm_hidden] * (self.lstm_layers - 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


class ModelParams:
    """Named, ordered collection of trainable tensors. Names are unique."""

    def __init__(self, params: Sequence[Parameter] = ()):
        self._by_name: dict[str, Parameter] = {}
        for p in params:
            self.add(p)

    def add(self, p: Parameter) -> Parameter:
        if p.name in self._by_name:
            raise ValidationError(f"duplicate parameter name {p.name!r}")
        self._by_name[p.name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> list[str]:
        return list(self._by_name)

    def total_size(self) -> int:
        return sum(p.value.size for p in self)

    def zero_grads(self) -> None:
        for p in self:
            p.zero_grad()


def _uniform(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Draw a fresh parameter set for the configured variant.

    Dense and graph-convolution weights are uniform(-1/sqrt(fan_in), ..);
    the LSTM forget-gate bias starts at 1.0 and all other biases at zero.
    The node embedding is created under every variant so that runs which
    ignore it can be shown to be independent of its value.
    """
    params = ModelParams()
    params.add(init_node_embedding(config.n_nodes, config.embed_dim, rng))

    layer_dims = config.gcn_layer_dims()
    for view in config.active_views:
        for l, (d_in, d_out) in enumerate(layer_dims):
            params.add(Parameter(f"gcn_{view}_w{l}", _uniform(rng, d_in, (d_in, d_out))))
    if config.channelwise:
        f = config.feature_dim
        for view in config.active_views:
            for i in range(config.n_channels):
                params.add(Parameter(f"fuse_{view}_w{i}", _uniform(rng, f, (config.n_nodes, f))))

    for layer, d_in in enumerate(config.lstm_input_dims()):
        z = config.lstm_hidden + d_in
        for gate in LSTM_GATES:
            params.add(Parameter(f"lstm{layer}_w{gate}", _uniform(rng, z, (z, config.lstm_hidden))))
            bias = np.full((1, config.lstm_hidden), 1.0 if gate == "f" else 0.0)
            params.add(Parameter(f"lstm{layer}_b{gate}", bias))

    for k, card in enumerate(config.external_cardinalities):
        params.add(Parameter(f"ext_embed{k}", _uniform(rng, card, (card, EXTERNAL_EMBED_WIDTH))))
    enc_in = EXTERNAL_EMBED_WIDTH * len(config.external_cardinalities) + config.external_continuous
    params.add(Parameter("ext_dense_w", _uniform(rng, enc_in, (enc_in, config.external_hidden))))
    params.add(Parameter("ext_dense_b", np.zeros((1, config.external_hidden))))

    head_in = config.lstm_hidden + config.external_hidden
    params.add(Parameter("head_w", _uniform(rng, head_in, (head_in, 1))))
    params.add(Parameter("head_b", np.zeros((1, 1))))
    return params


# --------------------------------------------------------------------- blocks


def channel_fuse(tape: Tape, channel_features: Sequence[Node], weights: Sequence[Node]) -> Node:
    """Trainable elementwise recombination: sum_i W_i * H_i.

    An N x F weight is broadcast over any slot and batch axes of its
    channel's block.
    """
    if len(channel_features) != len(weights) or not channel_features:
        raise ShapeError(
            f"channel_fuse: got {len(channel_features)} feature blocks for {len(weights)} weights"
        )
    return tape.weighted_sum(channel_features, weights)


def cgcn_forward(
    tape: Tape,
    x: np.ndarray,
    adjacency: Node | np.ndarray,
    params: ModelParams,
    view: str,
    config: ModelConfig,
) -> Node:
    """Channel-wise graph convolution for one view.

    ``x`` holds raw N x C slot matrices, one slot or any stack of them
    (``... x N x C``); the result has the same leading axes. Each channel
    column runs through the view's shared relu(A H W) stack, with the
    channels stacked as one more batch axis, and the per-channel outputs
    are fused with the view's trainable elementwise weights. Under the
    no-channelwise variant the whole slot matrix passes through the stack
    once, unfused.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2:] != (config.n_nodes, config.n_channels):
        raise ShapeError(
            f"cgcn input: expected slot matrices of shape {(config.n_nodes, config.n_channels)}, "
            f"got {x.shape}"
        )
    adj = adjacency if isinstance(adjacency, Node) else tape.constant(adjacency)
    if adj.value.shape != (config.n_nodes, config.n_nodes):
        raise ShapeError(
            f"cgcn adjacency: expected {(config.n_nodes,) * 2}, got {adj.value.shape}"
        )

    # channel-wise: C x ... x N x 1, one single-column graph signal per channel
    h = tape.constant(np.moveaxis(x, -1, 0)[..., None] if config.channelwise else x)
    for l in range(len(config.gcn_dims)):
        w = params[f"gcn_{view}_w{l}"]
        h = tape.affine(tape.matmul(adj, h), tape.param(w), act="relu")
    if not config.channelwise:
        return h
    weights = [tape.param(params[f"fuse_{view}_w{i}"]) for i in range(config.n_channels)]
    return channel_fuse(tape, tape.unstack(h), weights)


def multiview_fuse(tape: Tape, h_local: Node | None, h_global: Node | None, ablation: str = "full") -> Node:
    """Elementwise sum of the two views; single-view variants pass through."""
    if ablation == "local-only":
        if h_local is None:
            raise ShapeError("multiview_fuse: local-only variant requires the local features")
        return h_local
    if ablation == "global-only":
        if h_global is None:
            raise ShapeError("multiview_fuse: global-only variant requires the global features")
        return h_global
    if h_local is None or h_global is None:
        raise ShapeError("multiview_fuse: both views required outside single-view variants")
    return tape.add(h_local, h_global)


@dataclass
class HiddenState:
    """Per-layer recurrent state; entries of every h lie strictly in (-1, 1)."""

    layers: list[tuple[Node, Node]] = field(default_factory=list)

    @classmethod
    def zeros(cls, tape: Tape, config: ModelConfig, batch: tuple[int, ...] = ()) -> "HiddenState":
        """Zero state of shape ``batch + (N, hidden)`` for every layer."""
        shape = (*batch, config.n_nodes, config.lstm_hidden)
        return cls(
            [
                (tape.constant(np.zeros(shape)), tape.constant(np.zeros(shape)))
                for _ in range(config.lstm_layers)
            ]
        )


def lstm_cell(
    tape: Tape,
    x: Node,
    h_prev: Node,
    c_prev: Node,
    params: ModelParams,
    layer: int,
) -> tuple[Node, Node]:
    """One recurrent step applied row-wise per node with shared weights.

    The gate input is the column concatenation z = [h_prev, x]. All four
    gates come from one affine map z @ [W_f|W_i|W_c|W_o] + b with the
    activation applied per column block (forget, input and output gates
    are sigmoids, the candidate memory a tanh), then split into views.
    The per-gate parameters are joined once per tape.
    """
    hidden = h_prev.value.shape[-1]
    z = tape.concat_cols(h_prev, x)
    w = tape.param_cols([params[f"lstm{layer}_w{gate}"] for gate in LSTM_GATES])
    b = tape.param_cols([params[f"lstm{layer}_b{gate}"] for gate in LSTM_GATES])
    gates = tape.affine(z, w, b, act=[LSTM_GATE_ACT[gate] for gate in LSTM_GATES])
    f, i, candidate, o = tape.split_cols(gates, [hidden] * len(LSTM_GATES))
    c = tape.add(tape.hadamard(f, c_prev), tape.hadamard(i, candidate))
    h = tape.hadamard(o, tape.tanh(c))
    return h, c


def external_encode(
    tape: Tape,
    raw: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
) -> Node:
    """Encode covariate vectors to external_hidden features, one row each.

    ``raw`` is one vector or a batch x external_dim matrix; a single vector
    gives a 1 x external_hidden row. Categorical blocks are one-hot and
    turn into embedding-row lookups (realized as a one-hot matmul so
    gradients reach the right table row); continuous slots pass straight
    through. A single dense layer plus relu mixes everything.
    """
    raw = np.asarray(raw, dtype=np.float64)
    rows = raw.reshape(1, -1) if raw.ndim < 2 else raw
    if rows.ndim != 2 or rows.shape[1] != config.external_dim:
        raise ShapeError(
            f"external vector: expected length {config.external_dim}, got shape {raw.shape}"
        )
    pieces = []
    offset = 0
    for k, card in enumerate(config.external_cardinalities):
        block = rows[:, offset : offset + card]
        offset += card
        valid = np.all((block == 0.0) | (block == 1.0), axis=1) & (block.sum(axis=1) == 1.0)
        if not valid.all():
            raise ValidationError(
                f"categorical block {k} is not a valid one-hot over {card} categories: "
                f"{block[np.argmin(valid)]}"
            )
        pieces.append(tape.matmul(tape.constant(block), tape.param(params[f"ext_embed{k}"])))
    if config.external_continuous:
        pieces.append(tape.constant(rows[:, offset:]))
    merged = tape.concat_cols(*pieces)
    return tape.affine(
        merged, tape.param(params["ext_dense_w"]), tape.param(params["ext_dense_b"]), act="relu"
    )


def model_forward(
    tape: Tape,
    params: ModelParams,
    window: np.ndarray,
    external: np.ndarray,
    local_norm: np.ndarray | None,
    config: ModelConfig,
    index: np.ndarray | None = None,
) -> Node:
    """Full forward pass for a batch of B windows, giving B x N x 1.

    With ``index`` (a B x P integer array), ``window`` is an S x N x C block
    of distinct normalized slots and window b reads the slots
    ``window[index[b]]``; consecutive windows share P - 1 slots, so each
    slot is convolved once however many windows read it. Without it,
    ``window`` holds the windows themselves (B x P x N x C) and is taken
    as B * P slots under an ``arange`` index, through the same code. A
    single P x N x C window with its length-E vector is the batch of one
    and comes back as an N x 1 forecast.

    ``external`` holds one covariate vector per window (B x E). Both
    adjacencies are entered once per tape. Each active view convolves the
    slot block in one stack, the views are fused, the fused slot features
    are gathered into a P x B x N x F sequence by the index, and all LSTM
    layers step once per slot position. The covariate encoding is computed
    once per window, broadcast to every node, concatenated to the
    top-layer hidden state, and mapped through the linear head.
    """
    window = np.asarray(window, dtype=np.float64)
    external = np.asarray(external, dtype=np.float64)
    slot_shape = (config.n_nodes, config.n_channels)
    single = index is None and window.ndim == 3
    if index is None:
        expected = (config.window, *slot_shape)
        batch = window[None] if single else window
        if batch.ndim != 4 or batch.shape[1:] != expected:
            raise ShapeError(
                f"model input window: expected shape {expected} or batch x {expected}, "
                f"got {window.shape}"
            )
        window = batch.reshape(-1, *slot_shape)
        index = np.arange(len(window)).reshape(len(batch), config.window)
        if single:
            external = external.reshape(1, -1)
    else:
        index = np.asarray(index)
        if index.ndim != 2 or index.shape[1] != config.window:
            raise ShapeError(
                f"model input index: expected batch x {config.window}, got shape {index.shape}"
            )
        if window.ndim != 3 or window.shape[1:] != slot_shape:
            raise ShapeError(
                f"model input window: expected slots x {slot_shape}, got {window.shape}"
            )
    n_batch = len(index)
    if external.ndim != 2 or external.shape[0] != n_batch:
        raise ShapeError(
            f"model input covariates: expected one row per window ({n_batch}), "
            f"got shape {external.shape}"
        )

    use_local = "local" in config.active_views
    use_global = "global" in config.active_views
    adj_local: Node | None = None
    adj_global: Node | None = None
    if use_local:
        if local_norm is None:
            raise ShapeError("model input adjacency: local view requires the normalized matrix")
        adj_local = tape.constant(local_norm)
        if adj_local.value.shape != (config.n_nodes, config.n_nodes):
            raise ShapeError(
                f"model input adjacency: expected {(config.n_nodes,) * 2}, got {adj_local.value.shape}"
            )
    if use_global:
        # Rows of the learned adjacency sum to 1, so its degree matrix is the
        # identity and the symmetric degree scaling collapses to a no-op; the
        # matrix is applied directly.
        adj_global = adaptive_adjacency(tape, tape.param(params["node_embedding"]))

    h_local = cgcn_forward(tape, window, adj_local, params, "local", config) if use_local else None
    h_global = (
        cgcn_forward(tape, window, adj_global, params, "global", config) if use_global else None
    )
    features = multiview_fuse(tape, h_local, h_global, config.ablation)
    # slot position first, so each LSTM step reads one contiguous B x N x F block
    sequence = tape.take(features, index.T)

    state = HiddenState.zeros(tape, config, (n_batch,))
    for x_in in tape.unstack(sequence):
        new_layers = []
        for layer, (h_prev, c_prev) in enumerate(state.layers):
            h, c = lstm_cell(tape, x_in, h_prev, c_prev, params, layer)
            new_layers.append((h, c))
            x_in = h
        state = HiddenState(new_layers)
    top = state.layers[-1][0]

    encoded = external_encode(tape, external, params, config)
    per_node = tape.broadcast_to(
        tape.reshape(encoded, (n_batch, 1, config.external_hidden)),
        (n_batch, config.n_nodes, config.external_hidden),
    )
    out = tape.affine(
        tape.concat_cols(top, per_node),
        tape.param(params["head_w"]),
        tape.param(params["head_b"]),
    )
    return tape.reshape(out, (config.n_nodes, 1)) if single else out
