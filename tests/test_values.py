"""The eleven value classes behave as the frozen dataclasses they replace.

Each is a slotted subclass of ``fields.Value``: its ``repr`` is the
dataclass text, equal field values compare equal and hash alike, another
class never compares equal, every field is read-only, and an instance
survives ``pickle`` (``scan --jobs`` sends sets to its workers and rows
back). The package imports neither ``dataclasses`` nor, through it,
``inspect``.
"""

import ast
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from burnside import enumerate_diff_preserving, run_trace
from burnside.automorphisms import AutResult, ScanRow, walk_orbits
from burnside.classifier import (
    DOUBLY_TRANSITIVE,
    NOT_TRANSITIVE,
    Classification,
    classify,
)
from burnside.fields import DiffSet, PrimeField
from burnside.groups import EnumeratedGroup, GroupSpec, enumerate_group
from burnside.permutations import Perm, make_affine
from burnside.polynomials import FpPoly
from burnside.trace import TraceReport, TraceStep

SRC = Path(__file__).resolve().parent.parent / "src"

# The dataclass fields of each class, in declaration order: the order of
# its positional arguments and of its repr.
FIELDS = {
    PrimeField: ("p",),
    DiffSet: ("field", "elements"),
    Perm: ("field", "images"),
    FpPoly: ("field", "coeffs"),
    GroupSpec: ("field", "generators"),
    EnumeratedGroup: ("field", "generators", "elements"),
    Classification: ("field", "variant", "relabeling", "diff_set", "embedding",
                     "group_order"),
    AutResult: ("diff_set", "automorphisms", "mult_stabilizer", "all_affine"),
    ScanRow: ("elements", "size", "stabilizer_size", "automorphism_count",
              "all_affine", "min_power_index"),
    TraceStep: ("name", "passed", "detail"),
    TraceReport: ("field", "diff_set", "reduced_set", "degree", "w_max",
                  "min_power_index", "power_sums", "steps", "verdict"),
}


def _samples():
    """One instance of each class, built by the program mod 7."""
    f = PrimeField(7)
    u = DiffSet(f, (1, 2, 4))
    spec = GroupSpec(f, (make_affine((1, 1), f), make_affine((2, 0), f)))
    report = run_trace(f, u, make_affine((2, 1), f))
    (row, *_), _ = walk_orbits(f)
    return [f, u, make_affine((2, 1), f), FpPoly(f, (1, 2, 3)), spec,
            enumerate_group(spec, 50), classify(spec), enumerate_diff_preserving(f, u),
            row, report.steps[0], report]


SAMPLES = _samples()
IDS = [type(obj).__name__ for obj in SAMPLES]


def _values(obj):
    return [getattr(obj, name) for name in FIELDS[type(obj)]]


def _twin(obj):
    """The frozen dataclass with ``obj``'s class name, fields and values."""
    cls = dataclasses.make_dataclass(type(obj).__name__, FIELDS[type(obj)], frozen=True)
    return cls(*_values(obj))


def test_every_class_sampled():
    assert {type(obj) for obj in SAMPLES} == set(FIELDS)
    assert len(FIELDS) == 11


@pytest.mark.parametrize("obj", SAMPLES, ids=IDS)
class TestParity:
    def test_fields_in_dataclass_order(self, obj):
        assert type(obj).__slots__ == FIELDS[type(obj)]
        assert not hasattr(obj, "__dict__")

    def test_repr_is_the_dataclass_text(self, obj):
        assert repr(obj) == repr(_twin(obj))

    def test_equal_values_equal_and_hash_alike(self, obj):
        copy = type(obj)(*_values(obj))
        assert copy is not obj
        assert copy == obj and not copy != obj
        assert hash(copy) == hash(obj)
        assert {obj: 1}[copy] == 1

    def test_each_field_counts(self, obj):
        values = _values(obj)
        for i in range(len(values)):
            other = type(obj)._trusted(*values[:i], object(), *values[i + 1:])
            assert other != obj and obj != other

    def test_other_classes_unequal(self, obj):
        twin = _twin(obj)
        assert obj != twin and twin != obj
        assert obj != tuple(_values(obj))

    def test_fields_read_only(self, obj):
        # dataclasses.FrozenInstanceError subclasses AttributeError
        for name in FIELDS[type(obj)]:
            value = getattr(obj, name)
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, value)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(obj, name)
            assert getattr(obj, name) is value
        with pytest.raises(AttributeError):
            obj.extra = 1

    def test_pickle_round_trip(self, obj):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(obj, protocol))
            assert type(back) is type(obj) and back == obj


def test_distinct_values_hash_apart():
    # a constant hash would still be correct, but every lru_cache lookup
    # keyed on a set would collide
    f = PrimeField(7)
    assert len({hash(DiffSet(f, (u,))) for u in range(1, 7)}) == 6


def test_repr_text():
    f = PrimeField(5)
    assert repr(f) == "PrimeField(p=5)"
    assert repr(Perm.identity(f)) == "Perm(field=PrimeField(p=5), images=(0, 1, 2, 3, 4))"
    assert repr(Classification(f, NOT_TRANSITIVE)) == (
        "Classification(field=PrimeField(p=5), variant='NOT_TRANSITIVE', relabeling=None, "
        "diff_set=None, embedding=None, group_order=None)")


def test_unpickling_validates():
    # pickle rebuilds through __init__, which normalizes as it does on input
    state = pickle.dumps(DiffSet._trusted(PrimeField(7), [4, 1, 2]))
    assert pickle.loads(state).elements == (1, 2, 4)


class TestClassification:
    def test_defaults(self):
        c = Classification(PrimeField(5), DOUBLY_TRANSITIVE)
        assert (c.relabeling, c.diff_set, c.embedding, c.group_order) == (None,) * 4

    @pytest.mark.parametrize("c", [
        Classification(PrimeField(5), NOT_TRANSITIVE),
        Classification(PrimeField(5), DOUBLY_TRANSITIVE),
        SAMPLES[IDS.index("Classification")],
    ], ids=["not_transitive", "doubly_transitive", "solvable"])
    def test_payload_round_trip(self, c):
        assert Classification.from_payload(c.to_payload()) == c


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_dataclasses():
    paths = sorted((SRC / "burnside").glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {name.split(".")[0] for name in _imported_modules(tree)}
        assert "dataclasses" not in modules, path.name


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import burnside.cli; "
            "print(sorted({'burnside.cli', 'dataclasses', 'inspect'} - before & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n") == ["['burnside.cli']", ""]
