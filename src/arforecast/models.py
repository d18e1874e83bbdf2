"""Small forecasting models mapping an S-by-V context to an (L+T)-by-V prediction.

Three kinds share the interface: a per-variate linear map, a per-variate
one-hidden-layer MLP, and a single-block single-head attention model that
treats each variate's whole history as one token. The linear and MLP heads
are channel independent (one temporal map shared across variates), so
parameter counts never depend on V. Every op but attention's variate
mixing is column-wise, so B windows stacked side by side as the S-by-(B*V)
columns of one context run as one forecast; attention mixes only within
each window's group of V columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, attention_sublayer, ffn_sublayer, relu

KINDS = ("linear", "mlp", "inverted_attention")

STD_FLOOR = 1e-5


@dataclass(frozen=True)
class Dims:
    """Shape bundle: context length S, block length T, overlap L, variates V, hidden width."""

    S: int
    T: int
    L: int = 0
    V: int = 1
    hidden: int = 0

    def __post_init__(self):
        if self.S < 1:
            raise ValueError(f"S must be >= 1, got {self.S}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.L < 0 or self.L >= self.S:
            raise ValueError(f"L must satisfy 0 <= L < S, got L={self.L}, S={self.S}")
        if self.V < 1:
            raise ValueError(f"V must be >= 1, got {self.V}")
        if self.hidden < 0:
            raise ValueError(f"hidden must be >= 0, got {self.hidden}")

    @property
    def out_len(self) -> int:
        return self.L + self.T


@dataclass(eq=False)  # a model is itself, not its parameter values
class Forecaster:
    """A model whose ``params`` tensors are views of one contiguous vector, ``flat``."""

    kind: str
    dims: Dims
    params: dict[str, Tensor]
    flat: np.ndarray

    def param_vector(self) -> np.ndarray:
        return self.flat.copy()

    def set_param_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64).ravel()
        if vec.size != self.flat.size:
            raise ValueError(f"parameter vector has {vec.size} entries, "
                             f"model needs {self.flat.size}")
        self.flat[...] = vec

    @property
    def param_count(self) -> int:
        return self.flat.size


def _param_shapes(kind: str, dims: Dims) -> tuple[tuple[str, tuple[int, int], int], ...]:
    """(name, shape, fan_in) triples, in initialization/serialization order; one immutable
    tuple per (kind, S, L + T, hidden), worked out once."""
    return _layout(kind, dims.S, dims.out_len, dims.hidden)[1]


@functools.lru_cache(maxsize=64, typed=True)  # typed: an int dim never gets another type's shapes
def _layout(kind: str, S: int, out: int, h: int) -> tuple[int, tuple, tuple]:
    """The parameter count, the ``_param_shapes`` triples, and each parameter's (name, shape,
    start, stop) in the vector."""
    if kind in ("mlp", "inverted_attention") and h < 1:
        raise ValueError(f"{kind} requires hidden >= 1, got {h}")
    if kind == "linear":
        shapes = ("w", (out, S), S), ("b", (out, 1), S)
    elif kind == "mlp":
        shapes = ("w1", (h, S), S), ("b1", (h, 1), S), ("w2", (out, h), h), ("b2", (out, 1), h)
    elif kind == "inverted_attention":
        shapes = [("embed_w", (h, S), S), ("embed_b", (h, 1), S)]
        for name in ("q", "k", "v", "o", "ff1", "ff2"):
            shapes += [(f"{name}_w", (h, h), h), (f"{name}_b", (h, 1), h)]
        shapes = (*shapes, ("proj_w", (out, h), h), ("proj_b", (out, 1), h))
    else:
        raise ValueError(f"unknown forecaster kind {kind!r}")
    spans, stop = [], 0
    for name, shape, _ in shapes:
        start, stop = stop, stop + math.prod(shape)
        spans.append((name, shape, start, stop))
    return stop, shapes, tuple(spans)


def param_count(kind: str, dims: Dims) -> int:
    return _layout(kind, dims.S, dims.out_len, dims.hidden)[0]


def build_forecaster(kind: str, dims: Dims, flat) -> Forecaster:
    """A model over a float64 copy of the parameter vector ``flat``, in _param_shapes order;
    each parameter tensor is a view of that copy."""
    count, _, spans = _layout(kind, dims.S, dims.out_len, dims.hidden)
    flat = np.array(flat, dtype=np.float64)
    if flat.shape != (count,):
        raise ValueError(f"a {kind} model of {dims} takes a vector of {count} parameters, "
                         f"got shape {flat.shape}")
    params = {name: Tensor.view(flat[start:stop].reshape(shape), requires_grad=True)
              for name, shape, start, stop in spans}
    return Forecaster(kind=kind, dims=dims, params=params, flat=flat)


def init_forecaster(kind: str, dims: Dims, seed: int) -> Forecaster:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization.

    Uses the Philox counter-based generator, so identical seeds give
    bit-identical parameters across platforms and runs.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    return build_forecaster(kind, dims, np.concatenate([
        rng.uniform(-1.0 / math.sqrt(fan_in), 1.0 / math.sqrt(fan_in), size=shape).ravel()
        for _, shape, fan_in in _param_shapes(kind, dims)]))


def forecast(model: Forecaster, context: Tensor) -> Tensor:
    """Apply the model to an S-by-(B*V) stack of B contexts, producing (L+T)-by-(B*V) values."""
    dims = model.dims
    if not isinstance(context, Tensor):
        context = Tensor(context)
    if context.values.ndim != 2 or context.shape[0] != dims.S:
        raise ValueError(f"context must be ({dims.S}, V), got {context.shape}")
    p = model.params
    if model.kind == "linear":
        return affine(p["w"], context, p["b"])
    if model.kind == "mlp":
        return affine(p["w2"], relu(affine(p["w1"], context, p["b1"])), p["b2"])
    if model.kind == "inverted_attention":
        tokens = affine(p["embed_w"], context, p["embed_b"])
        x1 = attention_sublayer(tokens, p["q_w"], p["q_b"], p["k_w"], p["k_b"], p["v_w"],
                                p["v_b"], p["o_w"], p["o_b"], dims.V)
        x2 = ffn_sublayer(x1, p["ff1_w"], p["ff1_b"], p["ff2_w"], p["ff2_b"])
        return affine(p["proj_w"], x2, p["proj_b"])
    raise ValueError(f"unknown forecaster kind {model.kind!r}")


@dataclass(frozen=True)
class NormState:
    """Per-variate context mean and floored population std."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_context(cls, context: np.ndarray) -> "NormState":
        context = np.asarray(context, dtype=np.float64)
        if context.ndim != 2:
            raise ValueError(f"context must be 2-d, got shape {context.shape}")
        # np.mean and np.std's float operations, without their Python wrappers
        n = context.shape[0]
        mean = np.add.reduce(context, 0) / n
        centered = context - mean
        std = np.sqrt(np.add.reduce(centered * centered, 0) / n)
        return cls(mean=mean, std=np.maximum(std, STD_FLOOR))


def apply_norm(x: np.ndarray, state: NormState) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - state.mean) / state.std


def invert_norm(x: np.ndarray, state: NormState) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) * state.std + state.mean
