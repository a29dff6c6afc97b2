"""Read a built model's variable and row blocks, and the evaluator's
programs, in tests."""

import transitopt.evaluator as evaluator
from transitopt.model import SENSES


def var_ids(model, family: str) -> dict[tuple, int]:
    """Id of each variable of ``family``, by key."""
    return {tuple(key): b.start + k for b in model.var_blocks if b.family == family
            for k, key in enumerate(b.keys.tolist())}


def var_labels(model) -> list[tuple[str, tuple]]:
    """(family, key) of every variable, indexed by id."""
    return [(b.family, tuple(key)) for b in model.var_blocks for key in b.keys.tolist()]


def rows_of(model, family: str):
    """(key, terms, sense, rhs) of each row of ``family`` in written order,
    ``terms`` being its (variable id, coefficient) pairs."""
    for b in model.row_blocks:
        if b.family != family:
            continue
        bounds = b.indptr.tolist()
        cols, vals = b.cols.tolist(), b.vals.tolist()
        keys = zip(*(k.tolist() for k in b.keys)) if b.keys else [()] * len(b.rhs)
        for k, key in enumerate(keys):
            lo, hi = bounds[k], bounds[k + 1]
            yield (tuple(key), list(zip(cols[lo:hi], vals[lo:hi])), SENSES[b.sense[k]],
                   float(b.rhs[k]))


def record_programs(monkeypatch) -> list[dict]:
    """Columns, binaries, rows by family and nonzeros of every program the
    evaluator solves from now on, in solve order."""
    sizes = []
    milp = evaluator.milp

    def recording(model):
        by_family: dict[str, int] = {}
        for b in model.row_blocks:
            by_family[b.family] = by_family.get(b.family, 0) + len(b.rhs)
        sizes.append({"columns": model.n_vars,
                      "binaries": sum(len(b.lb) for b in model.var_blocks if b.kind == "B"),
                      "rows": by_family, "nonzeros": sum(len(b.cols) for b in model.row_blocks)})
        return milp(model)

    monkeypatch.setattr(evaluator, "milp", recording)
    return sizes
