"""Adam updates for plain numpy parameter dicts."""

from __future__ import annotations

import numpy as np


class Adam:
    """Adam with bias correction, updating arrays in place.

    Moment buffers are allocated lazily per parameter name on the first
    step, so one optimizer can serve a dict of differently shaped arrays.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, lr):
        if not 0 < lr < np.inf:
            raise ValueError(f"learning rate must be finite and positive, "
                             f"got {lr}")
        self.lr = lr
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, g in grads.items():
            p = params[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def state(self) -> dict:
        """Step count, rate and live moment buffers in one flat dict."""
        out = {"t": self.t, "lr": self.lr}
        for name in sorted(self.m):
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state(self, state: dict) -> None:
        self.t = int(state["t"])
        self.m, self.v = ({key[2:]: np.array(arr, dtype=np.float64)
                           for key, arr in state.items()
                           if key.startswith(part)} for part in ("m.", "v."))
