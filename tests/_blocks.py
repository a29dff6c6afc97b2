"""Read a built model's variable and row blocks in tests."""

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
