"""Computed work of one `transformer_core.layer_forward` call.

The layer runs on N = n + 1 tokens of width w = 2d + 9. Each entry below is
one numpy operation as the layer issues it, with the floating-point
operations it performs and the bytes it reads and writes if every operand
makes exactly one trip to memory (8-byte floats; an exp or a max counts as
one flop). Real traffic is higher when operands miss the cache and lower when
they stay in it, so both totals are labelled *computed*, not measured.
"""

from __future__ import annotations

FLOAT = 8


def layer_ops(n: int, d: int) -> list[tuple[str, int, int]]:
    """(operation, flops, bytes) for one layer on an n-point, d-dim prompt."""
    N, w = n + 1, 2 * d + 9
    mm = lambda a, b, c: (2 * a * b * c, FLOAT * (a * b + b * c + a * c))  # noqa: E731  (a x b) @ (b x c)
    ew = lambda size, inputs: (size, FLOAT * size * (inputs + 1))  # noqa: E731  elementwise, one output
    red = lambda size, out: (size, FLOAT * (size + out))  # noqa: E731  reduction along rows
    head = [
        ("Z @ Q", *mm(N, w, w)),
        ("(ZQ) @ Z.T", *mm(N, w, N)),
        ("logits.max", *red(N * N, N)),
        ("logits - max", *ew(N * N, 2)),
        ("exp", *ew(N * N, 1)),
        ("exp.sum", *red(N * N, N)),
        ("exp / sum", *ew(N * N, 2)),
        ("Z @ Wv", *mm(N, w, w)),
        ("softmax @ (Z Wv)", *mm(N, N, w)),
        ("@ B", *mm(N, w, w)),
        ("mid + head", *ew(N * w, 2)),
    ]
    ops = [("Z.copy", 0, FLOAT * 2 * N * w)]
    for h in (1, 2):
        ops += [(f"head{h}: {name}", fl, by) for name, fl, by in head]
    ops += [
        ("mid @ Wf", *mm(N, w, w)),
        ("relu", *ew(N * w, 1)),
        ("mid + relu", *ew(N * w, 2)),
    ]
    return ops


def layer_flops(n: int, d: int) -> int:
    return sum(fl for _, fl, _ in layer_ops(n, d))


def layer_bytes(n: int, d: int) -> int:
    return sum(by for _, _, by in layer_ops(n, d))


def summary(n: int, d: int) -> dict:
    flops, moved = layer_flops(n, d), layer_bytes(n, d)
    return {
        "n": n,
        "d": d,
        "width": 2 * d + 9,
        "flops": flops,
        "bytes": moved,
        "flops_per_byte": flops / moved,
        "label": "computed",
    }
