"""LP-format export: a deterministic writer.

Variable names are derived from the family prefix and the tag indices, e.g.
``x_t0_r0_p1_i3_j5`` for the pattern arc of period 0, route 0, pattern 1 from
direction stop 3 to 5. Rows are named by constraint family plus indices and
written grouped by family, so identical models export byte-identically.

The text is a subset of the CPLEX LP format; the test suite reads it back
with HiGHS's own LP reader and checks the row and column counts and the
optimum.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .model import MilpModel, Var

__all__ = ["variable_name", "write_lp"]

_VAR_LABELS = {
    "x": ("t", "r", "p", "i", "j"),
    "y": ("t", "r", "p", "h"),
    "cy": ("t", "r", "p", "h"),
    "z": ("t", "r", "i", "d", "c"),
    "fw": ("t", "r", "d", "i", "c"),
    "fa": ("t", "r", "d", "i", "c", "p"),
    "fl": ("t", "r", "d", "p", "i", "j"),
    "fb": ("t", "r", "j", "p"),
    "fx": ("t", "r", "d", "i", "j", "p", "c"),
    "n": ("r", "t"),
}

_TERMS_PER_LINE = 8
_HEADER = "\\ transitopt"

# One str.format template per family, e.g. "x_t{}_r{}_p{}_i{}_j{}".
_NAME_FORMATS = {
    family: family + "".join(f"_{label}{{}}" for label in labels)
    for family, labels in _VAR_LABELS.items()
}


def variable_name(var: Var) -> str:
    return _NAME_FORMATS[var.family].format(*var.key)


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


class _Texts(dict):
    """Memo of rendered numbers: ``render`` runs once per distinct value."""

    def __init__(self, render: Callable[[float], str]) -> None:
        super().__init__()
        self._render = render

    def __missing__(self, value: float) -> str:
        text = self[value] = self._render(value)
        return text


def _expression(head: str, coeffs: Sequence[tuple[int, float]], names: list[str],
                first: _Texts, later: _Texts) -> str:
    """`head` and the `coef name` terms, signs explicit, wrapped after every
    `_TERMS_PER_LINE` terms."""
    pieces = [later[c] + names[v] for v, c in coeffs]
    v, c = coeffs[0]
    pieces[0] = first[c] + names[v]
    step = _TERMS_PER_LINE
    if len(pieces) <= step:
        return " ".join((head, *pieces))
    lines = [" ".join((head, *pieces[:step]))]
    lines += ["  " + " ".join(pieces[k:k + step]) for k in range(step, len(pieces), step)]
    return "\n".join(lines)


def write_lp(model: MilpModel) -> str:
    """Serialize the model as LP-format text, byte-stable across runs."""
    names = [variable_name(v) for v in model.variables]
    # Signed text of a term's coefficient, as the first term of an
    # expression and as a later one; the variable name follows it.
    first = _Texts(lambda c: f"{_num(c)} " if c >= 0 else f"- {_num(-c)} ")
    later = _Texts(lambda c: f"+ {_num(c)} " if c >= 0 else f"- {_num(-c)} ")
    rhs_text = _Texts(_num)
    out: list[str] = [_HEADER, "Minimize"]

    obj_terms = [(vid, coef) for vid, coef in model.objective.items() if coef != 0.0]
    out.append(_expression(" obj:", obj_terms or [(0, 0.0)], names, first, later))

    out.append("Subject To")
    out += [
        _expression(f" {'_'.join((row.family, *map(str, row.key)))}:",
                    row.coeffs, names, first, later)
        + f" {row.sense} {rhs_text[row.rhs]}"
        for row in model.rows
    ]

    bounds: list[str] = []
    for v, nm in zip(model.variables, names):
        if (v.lb, v.ub) == ((0.0, 1.0) if v.kind == "B" else (0.0, math.inf)):
            continue
        if v.lb == v.ub:
            bounds.append(f" {nm} = {_num(v.lb)}")
        elif v.ub == math.inf:
            bounds.append(f" {nm} >= {_num(v.lb)}")
        else:
            bounds.append(f" {_num(v.lb)} <= {nm} <= {_num(v.ub)}")
    if bounds:
        out.append("Bounds")
        out.extend(bounds)

    binaries = [names[v.id] for v in model.variables if v.kind == "B"]
    if binaries:
        out.append("Binaries")
        for k in range(0, len(binaries), _TERMS_PER_LINE):
            out.append(" " + " ".join(binaries[k:k + _TERMS_PER_LINE]))
    generals = [names[v.id] for v in model.variables if v.kind == "I"]
    if generals:
        out.append("Generals")
        for k in range(0, len(generals), _TERMS_PER_LINE):
            out.append(" " + " ".join(generals[k:k + _TERMS_PER_LINE]))

    out.append("End")
    return "\n".join(out) + "\n"
