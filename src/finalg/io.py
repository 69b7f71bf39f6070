"""JSON interchange for algebras, and the canonical dump of every document.

Algebra documents are bit-exact: the table order (row-major, first argument
most significant) is normative, and serialisation is canonical (sorted keys,
fixed separators), so save/load round-trips are byte-identical.  Partitions
serialise through `Partition.to_obj` and `Partition.from_obj` in
`congruences`.
"""

from __future__ import annotations

import json
import os
import tempfile

from .algebras import AlgebraError, FiniteAlgebra, TableOp


def algebra_to_obj(alg: FiniteAlgebra) -> dict:
    return {
        "label": alg.label,
        "size": alg.size,
        "ops": [
            {"name": op.name, "arity": op.arity, "table": [int(v) for v in op.table_array()]}
            for op in alg.ops
        ],
    }


def algebra_from_obj(obj: dict) -> FiniteAlgebra:
    if not isinstance(obj, dict):
        raise AlgebraError("algebra document must be an object")
    for key in ("size", "ops"):
        if key not in obj:
            raise AlgebraError(f"missing field '{key}'")
    size = obj["size"]
    if not isinstance(size, int) or size < 1:
        raise AlgebraError("bad field 'size': must be a positive integer")
    ops = []
    for i, op in enumerate(obj["ops"]):
        where = f"ops[{i}]"
        for key in ("name", "arity", "table"):
            if key not in op:
                raise AlgebraError(f"missing field '{where}.{key}'")
        arity = op["arity"]
        if not isinstance(arity, int) or arity < 1:
            raise AlgebraError(f"bad field '{where}.arity': must be a positive integer")
        table = op["table"]
        if len(table) != size**arity:
            raise AlgebraError(
                f"bad field '{where}.table': {len(table)} entries, expected {size**arity}"
            )
        ops.append(TableOp(op["name"], arity, size, table))
    return FiniteAlgebra(size, ops, label=obj.get("label", ""))


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".finalg-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_algebra(alg: FiniteAlgebra, path: str) -> None:
    write_atomic(path, dumps_canonical(algebra_to_obj(alg)))


def load_algebra(path: str) -> FiniteAlgebra:
    with open(path) as handle:
        return algebra_from_obj(json.load(handle))
