"""A small convolutional network with manual backprop.

The paper's accuracy experiment (Figure 5) runs on a CNN; this gives the
training substrate one too: conv3×3 → ReLU → 2×2 max-pool, twice, then a
dense classifier.  Convolutions run via im2col so the numpy matmuls do
the heavy lifting, and the backward pass is finite-difference-checked by
the tests.  The class satisfies the same flat-parameter protocol as
:class:`repro.training.nn.MLP`, so the data-parallel trainer and the
ring all-reduce work unchanged.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.training.nn import softmax_cross_entropy


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """(N, H, W, C) → (N, H-k+1, W-k+1, k*k*C) patch matrix (valid)."""
    n, h, w, c = x.shape
    oh, ow = h - kernel + 1, w - kernel + 1
    shape = (n, oh, ow, kernel, kernel, c)
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2],
        x.strides[1],
        x.strides[2],
        x.strides[3],
    )
    patches = np.lib.stride_tricks.as_strided(x, shape=shape, strides=strides)
    return patches.reshape(n, oh, ow, kernel * kernel * c)


def _col2im(
    grad_patches: np.ndarray, input_shape: Tuple[int, int, int, int], kernel: int
) -> np.ndarray:
    """Scatter-add the im2col gradient back onto the input tensor."""
    n, h, w, c = input_shape
    oh, ow = h - kernel + 1, w - kernel + 1
    grad = np.zeros(input_shape)
    patches = grad_patches.reshape(n, oh, ow, kernel, kernel, c)
    for ky in range(kernel):
        for kx in range(kernel):
            grad[:, ky : ky + oh, kx : kx + ow, :] += patches[:, :, :, ky, kx, :]
    return grad


class ConvNet:
    """conv(k=3) → ReLU → maxpool(2) → conv(k=3) → ReLU → maxpool(2) →
    flatten → dense logits."""

    KERNEL = 3
    POOL = 2

    def __init__(
        self,
        input_shape: Tuple[int, int, int],
        channels: Sequence[int] = (8, 16),
        num_classes: int = 10,
        seed: int = 0,
    ) -> None:
        h, w, c = input_shape
        if len(channels) != 2:
            raise ConfigError("ConvNet uses exactly two conv stages")
        if num_classes <= 0:
            raise ConfigError("num_classes must be positive")
        for stage in range(2):
            h = (h - self.KERNEL + 1) // self.POOL
            w = (w - self.KERNEL + 1) // self.POOL
            if h <= 0 or w <= 0:
                raise ConfigError(f"input {input_shape} too small for the stack")
        self.input_shape = tuple(input_shape)
        self.channels = tuple(channels)
        self.num_classes = num_classes
        self._out_hw = (h, w)
        rng = np.random.default_rng(seed)
        k = self.KERNEL
        c0, c1 = channels
        self.w1 = rng.normal(0, np.sqrt(2.0 / (k * k * c)), (k * k * c, c0))
        self.b1 = np.zeros(c0)
        self.w2 = rng.normal(0, np.sqrt(2.0 / (k * k * c0)), (k * k * c0, c1))
        self.b2 = np.zeros(c1)
        flat_in = h * w * c1
        self.w3 = rng.normal(0, np.sqrt(2.0 / flat_in), (flat_in, num_classes))
        self.b3 = np.zeros(num_classes)

    # -- forward ----------------------------------------------------------

    def _conv_forward(self, x, weight, bias):
        patches = _im2col(x, self.KERNEL)
        pre = patches @ weight + bias
        return patches, pre

    def _pool_forward(self, x):
        n, h, w, c = x.shape
        p = self.POOL
        th, tw = h // p, w // p
        tiles = x[:, : th * p, : tw * p, :].reshape(n, th, p, tw, p, c)
        pooled = tiles.max(axis=(2, 4))
        mask = tiles == pooled[:, :, None, :, None, :]
        return pooled, mask, (n, h, w, c)

    def _pool_backward(self, grad, mask, shape):
        n, h, w, c = shape
        p = self.POOL
        th, tw = h // p, w // p
        expanded = mask * grad[:, :, None, :, None, :]
        out = np.zeros(shape)
        out[:, : th * p, : tw * p, :] = expanded.reshape(n, th * p, tw * p, c)
        return out

    def _forward_pass(self, x: np.ndarray):
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ConfigError(
                f"expected (batch, {self.input_shape}), got {x.shape}"
            )
        cache = {}
        cache["p1"], pre1 = self._conv_forward(x, self.w1, self.b1)
        act1 = np.maximum(pre1, 0.0)
        cache["pre1"] = pre1
        pool1, cache["m1"], cache["s1"] = self._pool_forward(act1)
        cache["p2"], pre2 = self._conv_forward(pool1, self.w2, self.b2)
        act2 = np.maximum(pre2, 0.0)
        cache["pre2"] = pre2
        cache["pool1_shape"] = pool1.shape
        pool2, cache["m2"], cache["s2"] = self._pool_forward(act2)
        cache["pool2_shape"] = pool2.shape
        flat = pool2.reshape(x.shape[0], -1)
        cache["flat"] = flat
        logits = flat @ self.w3 + self.b3
        return logits, cache

    def forward(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self._forward_pass(x)
        return logits

    # -- backward -----------------------------------------------------------

    def loss_and_grads(
        self, x: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, List[np.ndarray]]:
        """Loss plus gradients in [w1, b1, w2, b2, w3, b3] order."""
        logits, cache = self._forward_pass(x)
        loss, dlogits = softmax_cross_entropy(logits, labels)

        gw3 = cache["flat"].T @ dlogits
        gb3 = dlogits.sum(axis=0)
        dflat = dlogits @ self.w3.T
        dpool2 = dflat.reshape(cache["pool2_shape"])
        dact2 = self._pool_backward(dpool2, cache["m2"], cache["s2"])
        dpre2 = dact2 * (cache["pre2"] > 0)
        n = x.shape[0]
        p2 = cache["p2"].reshape(-1, self.w2.shape[0])
        gw2 = p2.T @ dpre2.reshape(-1, self.w2.shape[1])
        gb2 = dpre2.sum(axis=(0, 1, 2))
        dpatches2 = dpre2 @ self.w2.T
        dpool1 = _col2im(dpatches2, cache["pool1_shape"], self.KERNEL)
        dact1 = self._pool_backward(dpool1, cache["m1"], cache["s1"])
        dpre1 = dact1 * (cache["pre1"] > 0)
        p1 = cache["p1"].reshape(-1, self.w1.shape[0])
        gw1 = p1.T @ dpre1.reshape(-1, self.w1.shape[1])
        gb1 = dpre1.sum(axis=(0, 1, 2))
        return loss, [gw1, gb1, gw2, gb2, gw3, gb3]

    # -- parameter protocol ---------------------------------------------------

    def _params(self) -> List[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def apply_grads(self, grads: Sequence[np.ndarray], lr: float) -> None:
        params = self._params()
        if len(grads) != len(params):
            raise ConfigError("gradient list has the wrong length")
        for param, grad in zip(params, grads):
            param -= lr * grad

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.reshape(-1) for p in self._params()])

    def set_flat_params(self, flat: np.ndarray) -> None:
        params = self._params()
        expected = sum(p.size for p in params)
        if flat.shape != (expected,):
            raise ConfigError(f"expected {expected} params, got {flat.shape}")
        offset = 0
        for param in params:
            param[...] = flat[offset : offset + param.size].reshape(param.shape)
            offset += param.size

    @staticmethod
    def flatten_grads(grads: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([g.reshape(-1) for g in grads])

    def unflatten_grads(self, flat: np.ndarray) -> List[np.ndarray]:
        out: List[np.ndarray] = []
        offset = 0
        for param in self._params():
            out.append(flat[offset : offset + param.size].reshape(param.shape))
            offset += param.size
        return out

    def clone(self) -> "ConvNet":
        """A structurally identical copy with the same parameters."""
        twin = ConvNet(
            self.input_shape, self.channels, self.num_classes, seed=0
        )
        twin.set_flat_params(self.flat_params())
        return twin

    # -- evaluation ------------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(x) == labels).mean())

    def top_k_accuracy(self, x: np.ndarray, labels: np.ndarray, k: int = 5) -> float:
        logits = self.forward(x)
        k = min(k, logits.shape[1])
        top = np.argsort(-logits, axis=1)[:, :k]
        return float((top == labels[:, None]).any(axis=1).mean())
