"""Forward pass of the two-view channel-wise graph forecaster.

Per input time slot, each observation channel is pushed separately through
a stack of graph convolutions (one shared stack per spatial view), the
per-channel outputs are recombined with trainable elementwise weights in
one weighted sum over the channel axis, the two views are summed, and the
fused node features drive a per-node LSTM whose weights are shared across
nodes; each LSTM layer is one tape op over the whole window sequence. A
compact encoding of calendar and weather covariates is concatenated to the
final hidden state before the linear prediction head.

A forward pass takes a batch of windows as a block of distinct slots plus
an index of each window's slots into it. Slots and channels are batch
axes of one convolution stack per view, so a batch costs one pass, and a
slot that several windows read is convolved once.

All functions here record onto a caller-supplied tape; nothing mutates
parameters. Forward passes are deterministic given parameter values.
``TrainConfig`` lives here beside ``ModelConfig`` so that a checkpoint load
can check both without importing the training loop.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .autodiff import Node, Parameter, Tape
from .errors import ShapeError, ValidationError, _json_number
from .graphs import adaptive_adjacency

ABLATIONS = ("full", "local-only", "global-only", "no-channelwise")
VIEWS = ("local", "global")
# the order Tape.lstm_layer takes the gate parameters in: forget, input,
# candidate, output; its gate buffers are laid out forget, input, output,
# candidate, so this is not the buffer order
LSTM_GATES = ("f", "i", "c", "o")

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
        # field types are strings here (postponed annotations)
        for f in fields(self):
            value = getattr(self, f.name)
            least = 0 if f.name == "external_continuous" else 1
            if f.type == "int":
                setattr(self, f.name, _json_number(f.name, value, least))
            elif f.type == "tuple[int, ...]":
                if not isinstance(value, (Sequence, np.ndarray)):
                    raise ValidationError(f"{f.name} must be a list of integers, got {value!r}")
                setattr(self, f.name, tuple(_json_number(f.name, v, least) for v in value))
        if not self.gcn_dims:
            raise ValidationError("gcn_dims must not be empty")
        if self.external_dim == 0:
            raise ValidationError(
                "the model needs a covariate input: external_cardinalities is empty "
                "and external_continuous is 0"
            )
        if self.ablation not in ABLATIONS:
            raise ValidationError(f"unknown ablation {self.ablation!r}, expected one of {ABLATIONS}")

    # -- derived layout ------------------------------------------------------

    @property
    def external_dim(self) -> int:
        """Length of a covariate row: a code per categorical field, then the values."""
        return len(self.external_cardinalities) + self.external_continuous

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
        return cls(**d)


@dataclass
class TrainConfig:
    """Loop hyperparameters with conventional defaults."""

    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    clip_norm: float = 5.0
    seed: int = 0
    train_frac: float = 0.7
    val_frac: float = 0.1
    checkpoint_dir: str | None = None

    def __post_init__(self):
        # field types are strings here (postponed annotations)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                setattr(self, f.name, _json_number(f.name, value, 0 if f.name == "seed" else 1))
            elif f.type == "float":
                _json_number(f.name, value)
            elif not isinstance(value, (str, type(None))):  # checkpoint_dir
                raise ValidationError(f"{f.name} must be a string or null, got {value!r}")
        # learning_rate 0 is allowed: it freezes the model, which is useful
        # as a determinism probe
        if self.learning_rate < 0.0:
            raise ValidationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValidationError("momentum decay rates must lie in [0, 1)")
        if self.epsilon <= 0.0 or self.clip_norm <= 0.0:
            raise ValidationError("epsilon and clip_norm must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


class ModelParams:
    """Named, ordered trainable tensors held in one flat float64 vector.

    ``values`` holds every parameter's entries back to back, in order (the
    order of the checkpoint table), and each ``Parameter.value`` is a
    reshaped view into it. So one operation on the vector updates, copies
    or saves every parameter. Names are unique.
    """

    def __init__(self, params: Sequence[Parameter] = ()):
        """Pack the parameters' values into a new vector and rebind each
        ``Parameter.value`` to its view of it, so a parameter belongs to
        the last set built from it."""
        params = list(params)
        self.values = np.concatenate([np.zeros(0), *(p.value.reshape(-1) for p in params)])
        self._by_name: dict[str, Parameter] = {}
        for p, view in zip(params, _split(self.values, [p.value.shape for p in params])):
            if p.name in self._by_name:
                raise ValidationError(f"duplicate parameter name {p.name!r}")
            p.value = view
            self._by_name[p.name] = p

    @classmethod
    def view(cls, values: np.ndarray, layout: Sequence[tuple[str, tuple[int, ...]]]) -> ModelParams:
        """Parameters named and shaped by ``layout`` (unique names, as many
        entries in all as ``values`` holds) whose values are views into
        ``values`` itself, which is not copied."""
        params = cls()
        params.values = values
        for (name, _), v in zip(layout, _split(values, [shape for _, shape in layout])):
            params._by_name[name] = Parameter(name, v)
        return params

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

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(p.name, p.value.shape) for p in self]

    def total_size(self) -> int:
        return self.values.size

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """A vector laid out like ``values``, as one view per parameter."""
        return _split(vector, [p.value.shape for p in self])

    def copy(self) -> ModelParams:
        """An independent set of the same layout: one copy of the vector."""
        return ModelParams.view(self.values.copy(), self.layout())


def _split(vector: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    bounds = np.cumsum([0, *(math.prod(shape) for shape in shapes)]).tolist()
    return [vector[lo:hi].reshape(shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]


def _param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, fan-in) of every parameter in table order; a bias has
    fan-in 0."""
    specs = [("node_embedding", (config.n_nodes, config.embed_dim), config.embed_dim)]
    layer_dims = config.gcn_layer_dims()
    for view in config.active_views:
        for l, (d_in, d_out) in enumerate(layer_dims):
            specs.append((f"gcn_{view}_w{l}", (d_in, d_out), d_in))
    if config.channelwise:
        f = config.feature_dim
        for view in config.active_views:
            for i in range(config.n_channels):
                specs.append((f"fuse_{view}_w{i}", (config.n_nodes, f), f))

    hidden = config.lstm_hidden
    for layer, d_in in enumerate(config.lstm_input_dims()):
        z = hidden + d_in
        for gate in LSTM_GATES:
            specs.append((f"lstm{layer}_w{gate}", (z, hidden), z))
            specs.append((f"lstm{layer}_b{gate}", (1, hidden), 0))

    for k, card in enumerate(config.external_cardinalities):
        specs.append((f"ext_embed{k}", (card, EXTERNAL_EMBED_WIDTH), card))
    enc_in = EXTERNAL_EMBED_WIDTH * len(config.external_cardinalities) + config.external_continuous
    specs.append(("ext_dense_w", (enc_in, config.external_hidden), enc_in))
    specs.append(("ext_dense_b", (1, config.external_hidden), 0))

    head_in = hidden + config.external_hidden
    specs.append(("head_w", (head_in, 1), head_in))
    specs.append(("head_b", (1, 1), 0))
    return specs


def param_layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter of the configured variant, in the
    order of the checkpoint table; nothing is drawn."""
    return [(name, shape) for name, shape, _ in _param_specs(config)]


def init_params(config: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Draw a fresh parameter set for the configured variant.

    Dense, graph-convolution and embedding weights are
    uniform(-1/sqrt(fan_in), ..), drawn in table order straight into the
    flat vector; the LSTM forget-gate bias starts at 1.0 and all other
    biases at zero. The node embedding is created under every variant so
    that runs which ignore it can be shown to be independent of its value.
    """
    specs = _param_specs(config)
    layout = param_layout(config)
    params = ModelParams.view(np.zeros(sum(math.prod(shape) for _, shape in layout)), layout)
    for p, (_, shape, fan_in) in zip(params, specs):
        if fan_in:
            bound = 1.0 / np.sqrt(fan_in)
            p.value[...] = rng.uniform(-bound, bound, size=shape)
    for layer in range(config.lstm_layers):
        params[f"lstm{layer}_bf"].value[...] = 1.0
    return params


# --------------------------------------------------------------------- blocks


def cgcn_forward(
    tape: Tape,
    x: np.ndarray,
    adjacency: Node,
    params: ModelParams,
    view: str,
    config: ModelConfig,
) -> Node:
    """Channel-wise graph convolution for one view over an N x N adjacency node.

    ``x`` holds raw N x C slot matrices, one slot or any stack of them
    (``... x N x C``); the result has the same leading axes. Each channel
    column runs through the view's shared relu(A H W) stack, with the
    channels stacked as one more batch axis, and the per-channel outputs
    are fused with the view's trainable elementwise weights as one
    ``weighted_sum`` over the channel axis, sum_i W_i * H_i, each N x F
    weight broadcast over the slot axes. Under the no-channelwise variant
    the whole slot matrix passes through the stack once, unfused.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2:] != (config.n_nodes, config.n_channels):
        raise ShapeError(
            f"cgcn input: expected slot matrices of shape {(config.n_nodes, config.n_channels)}, "
            f"got {x.shape}"
        )
    if adjacency.value.shape != (config.n_nodes, config.n_nodes):
        raise ShapeError(
            f"cgcn adjacency: expected {(config.n_nodes,) * 2}, got {adjacency.value.shape}"
        )

    # channel-wise: C x ... x N x 1, one single-column graph signal per channel
    h = tape.constant(np.moveaxis(x, -1, 0)[..., None] if config.channelwise else x)
    for l in range(len(config.gcn_dims)):
        w = params[f"gcn_{view}_w{l}"]
        h = tape.affine(tape.matmul(adjacency, h), tape.param(w), act="relu")
    if not config.channelwise:
        return h
    weights = [tape.param(params[f"fuse_{view}_w{i}"]) for i in range(config.n_channels)]
    return tape.weighted_sum(h, weights)


def multiview_fuse(tape: Tape, views: Sequence[Node]) -> Node:
    """Elementwise sum of the active views' features; a single view passes through."""
    fused = views[0]
    for h in views[1:]:
        fused = tape.add(fused, h)
    return fused


def lstm_cell(tape: Tape, sequence: Node, params: ModelParams, layer: int) -> Node:
    """One LSTM layer over a P x ... x D sequence, row-wise with weights
    shared across nodes, as one tape op; gives the P hidden states. Each
    step's gates read z = [h_prev, x]: sigmoid forget, input and output
    gates and a tanh candidate memory, each of z @ W + b."""
    return tape.lstm_layer(
        sequence,
        [tape.param(params[f"lstm{layer}_w{gate}"]) for gate in LSTM_GATES],
        [tape.param(params[f"lstm{layer}_b{gate}"]) for gate in LSTM_GATES],
    )


def external_encode(
    tape: Tape,
    rows: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
) -> Node:
    """Encode a batch x external_dim matrix of covariate rows to one
    external_hidden row each.

    A row is laid out as ``SignalDataset.externals``: one integer category
    code per categorical field, then the continuous values; a code that is
    not a row of its field's table is refused, naming the field and value.
    Each code gathers its row of the field's embedding table, so only that
    row gets gradient; continuous values pass straight through. A single
    dense layer plus relu mixes everything.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != config.external_dim:
        raise ShapeError(
            f"external vector: expected rows of length {config.external_dim}, got shape {rows.shape}"
        )
    cards = config.external_cardinalities
    n_codes = len(cards)
    codes = rows[:, :n_codes]
    valid = np.isfinite(codes) & (codes == np.round(codes)) & (codes >= 0) & (codes < cards)
    if not valid.all():
        r, k = np.argwhere(~valid)[0]
        raise ValidationError(
            f"external vector: field {k} holds {codes[r, k].item()!r}, "
            f"not an integer category code in [0, {cards[k]})"
        )
    pieces = [
        tape.take(tape.param(params[f"ext_embed{k}"]), codes[:, k].astype(np.int64))
        for k in range(n_codes)
    ]
    if config.external_continuous:
        pieces.append(tape.constant(rows[:, n_codes:]))
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

    ``window`` is an S x N x C block of distinct normalized slots, and
    ``index`` (a B x P integer array) lists window b's slots as rows of it,
    ``window[index[b]]``; consecutive windows share P - 1 slots, so each
    slot is convolved once however many windows read it. Without ``index``,
    ``window`` is one P x N x C window, read as the batch of one under the
    index ``[0 .. P-1]`` through the same code, and its N x 1 forecast is
    returned.

    ``external`` holds one covariate row per window (B x E; one row may be
    given as a vector). Each active view enters its adjacency once per
    tape and convolves the slot block in one stack, the views are fused,
    the fused slot features are gathered into a P x B x N x F sequence by
    the index, and each LSTM layer runs over that whole sequence as one op.
    The covariate encoding is computed once per window, broadcast to every
    node, concatenated to the top layer's last hidden state, and mapped
    through the linear head.
    """
    window = np.asarray(window, dtype=np.float64)
    external = np.atleast_2d(np.asarray(external, dtype=np.float64))
    slot_shape = (config.n_nodes, config.n_channels)
    single = index is None
    if single:
        if window.shape[:1] != (config.window,):
            raise ShapeError(
                f"model input window: expected {config.window} slots, got shape {window.shape}"
            )
        index = np.arange(config.window)[None]
    index = np.asarray(index)
    if index.ndim != 2 or index.shape[1] != config.window:
        raise ShapeError(
            f"model input index: expected batch x {config.window}, got shape {index.shape}"
        )
    if window.ndim != 3 or window.shape[1:] != slot_shape:
        raise ShapeError(f"model input window: expected slots x {slot_shape}, got {window.shape}")
    n_batch = len(index)
    if external.ndim != 2 or external.shape[0] != n_batch:
        raise ShapeError(
            f"model input covariates: expected one row per window ({n_batch}), "
            f"got shape {external.shape}"
        )

    features = []
    for view in config.active_views:
        if view == "global":
            # Rows of the learned adjacency sum to 1, so its degree matrix is
            # the identity and the symmetric degree scaling collapses to a
            # no-op; the matrix is applied directly.
            adjacency = adaptive_adjacency(tape, tape.param(params["node_embedding"]))
        elif local_norm is None:
            raise ShapeError("model input adjacency: local view requires the normalized matrix")
        else:
            adjacency = tape.constant(local_norm)
        features.append(cgcn_forward(tape, window, adjacency, params, view, config))
    # slot position first, so each LSTM step reads one contiguous B x N x F block
    sequence = tape.take(multiview_fuse(tape, features), index.T)

    for layer in range(config.lstm_layers):
        sequence = lstm_cell(tape, sequence, params, layer)
    top = tape.take(sequence, np.array(config.window - 1))

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
