"""The six read-only records: what each keeps of a frozen record class.

``cli.AxisSpec``, ``cli.ScanSpec``, ``cli.ScanResult``,
``reservoir.ReservoirParams``, ``fmo.SiteDataset`` and ``fmo.ExcitonTable``
are plain ``__slots__`` classes on one base, ``fmoent._Record``.  Each is
read-only, prints as ``Name(field=value, ...)``, compares by value (array
fields by their values), and survives a pickle and a deep copy.
"""

import copy
import pickle

import numpy as np
import pytest

from fmoent import fmo
from fmoent.cli import AxisSpec, ScanResult, ScanSpec, run_scan
from fmoent.reservoir import ReservoirParams


def _records():
    table = fmo.exciton_table(fmo.build_hamiltonian(fmo.dataset("reng")))
    return {
        "AxisSpec": AxisSpec("t", 0.0, 1.0, 3),
        "ScanSpec": ScanSpec("delta_p", (AxisSpec("t", 0.0, 1.0, 3),), {"gamma0": 1000.0, "half_width": 40.0}),
        "ScanResult": ScanResult(["t_ps", "v"], np.array([[0.5], [0.25]]), (np.array([0.0, 1.0]),)),
        "ReservoirParams-scalar": ReservoirParams(1000.0, half_width=40.0),
        "ReservoirParams-array": ReservoirParams(np.array([[1000.0], [10.0]]), half_width=40.0,
                                                 delta=np.array([0.0, 100.0])),
        "SiteDataset": fmo.dataset("reng"),
        "ExcitonTable": table,
    }


RECORDS = list(_records())

FIELDS = {
    AxisSpec: ("name", "start", "stop", "steps"),
    ScanSpec: ("observable", "axes", "fixed"),
    ScanResult: ("header", "values", "axes"),
    ReservoirParams: ("gamma0", "half_width", "delta"),
    fmo.SiteDataset: ("name", "site_energies"),
    fmo.ExcitonTable: ("energies", "amplitudes"),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def _equal(x, y) -> bool:
    """Field by field: arrays by value and dtype, tuples element by element, the rest by ``==``."""
    if isinstance(x, tuple):
        return type(y) is tuple and len(x) == len(y) and all(map(_equal, x, y))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y


class TestRepr:
    @pytest.mark.parametrize(
        "record, text",
        [
            (AxisSpec("t", 0.0, 1.0, 3), "AxisSpec(name='t', start=0.0, stop=1.0, steps=3)"),
            (
                ScanSpec("delta_p", (AxisSpec("n", 2.0, 4.0, 3),), {"t": 0.5}),
                "ScanSpec(observable='delta_p', axes=(AxisSpec(name='n', start=2.0, stop=4.0, steps=3),), "
                "fixed=mappingproxy({'t': 0.5}))",
            ),
            (ScanSpec("delta_p"), "ScanSpec(observable='delta_p', axes=(), fixed=mappingproxy({}))"),
            (
                ScanResult(["t_ps", "v"], np.array([[0.5], [0.25]]), (np.array([0.0, 1.0]),)),
                "ScanResult(header=['t_ps', 'v'], values=array([[0.5 ],\n       [0.25]]), axes=(array([0., 1.]),))",
            ),
            (ReservoirParams(1000.0, half_width=40.0), "ReservoirParams(gamma0=1000.0, half_width=40.0, delta=0.0)"),
            (ReservoirParams(10, half_width=20, delta=100), "ReservoirParams(gamma0=10, half_width=20, delta=100)"),
            (
                ReservoirParams(np.array([10.0, 20.0]), half_width=20.0),
                "ReservoirParams(gamma0=array([10., 20.]), half_width=20.0, delta=0.0)",
            ),
            (
                fmo.SiteDataset("x", [1.0, 2.0, 0.0, 3.0, 4.0, 5.0, 6.0]),
                "SiteDataset(name='x', site_energies=array([1., 2., 0., 3., 4., 5., 6.]))",
            ),
            (
                fmo.ExcitonTable([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]),
                "ExcitonTable(energies=array([1., 2.]), amplitudes=array([[1., 0.],\n       [0., 1.]]))",
            ),
        ],
        ids=[
            "AxisSpec", "ScanSpec", "ScanSpec-defaults", "ScanResult", "ReservoirParams",
            "ReservoirParams-ints", "ReservoirParams-array", "SiteDataset", "ExcitonTable",
        ],
    )
    def test_repr_names_each_field(self, record, text):
        assert repr(record) == text


class TestReadOnly:
    @pytest.mark.parametrize("key", RECORDS)
    def test_no_field_can_be_assigned_or_deleted(self, key):
        record = _records()[key]
        before = repr(record)
        for name in FIELDS[type(record)]:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.other = 1
        assert repr(record) == before

    @pytest.mark.parametrize("key", RECORDS)
    def test_no_instance_dict(self, key):
        assert not hasattr(_records()[key], "__dict__")


class TestCopies:
    @pytest.mark.parametrize("key", RECORDS)
    @pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
    def test_round_trip(self, key, how):
        record = _records()[key]
        twin = {
            "pickle": lambda r: pickle.loads(pickle.dumps(r)),
            "deepcopy": copy.deepcopy,
            "copy": copy.copy,
        }[how](record)
        assert type(twin) is type(record)
        assert _equal(_fields(twin), _fields(record))
        assert twin == record
        assert repr(twin) == repr(record)

    def test_a_copy_is_rebuilt_and_checked(self):
        # the constructor runs again: a copy keeps the read-only arrays and the mapping proxy
        spec = copy.deepcopy(_records()["ScanSpec"])
        with pytest.raises(TypeError):
            spec.fixed["t"] = 1.0
        params = pickle.loads(pickle.dumps(_records()["ReservoirParams-array"]))
        assert not params.gamma0.flags.writeable
        assert not fmo.dataset("wend").site_energies.flags.writeable


class TestEquality:
    def test_scan_results_of_one_spec_are_equal(self):
        # the generated __eq__ compared the values arrays with ==: "truth value ... is ambiguous"
        spec = ScanSpec("delta_p", (AxisSpec("t", 0.0, 1.0, 3),), {"gamma0": 1000.0, "half_width": 40.0})
        assert run_scan(spec) == run_scan(spec)
        other = ScanSpec("delta_p", (AxisSpec("t", 0.0, 1.0, 3),), {"gamma0": 10.0, "half_width": 40.0})
        assert run_scan(spec) != run_scan(other)

    @pytest.mark.parametrize("key", RECORDS)
    def test_each_record_equals_a_fresh_one(self, key):
        assert _records()[key] == _records()[key]
        assert not _records()[key] != _records()[key]

    def test_array_fields_compare_by_value(self):
        a = ReservoirParams(np.array([1000.0, 10.0]), half_width=40.0)
        assert a == ReservoirParams(np.array([1000.0, 10.0]), half_width=40.0)
        assert a != ReservoirParams(np.array([1000.0, 20.0]), half_width=40.0)
        assert a != ReservoirParams(np.array([[1000.0, 10.0]]), half_width=40.0)  # another shape
        assert fmo.dataset("reng") == fmo.dataset("reng")
        assert fmo.dataset("reng") != fmo.dataset("wend")
        values = np.array([[0.5], [0.25]])
        result = ScanResult(["t_ps", "v"], values, (np.array([0.0, 1.0]),))
        assert result != ScanResult(["t_ps", "v"], values, (np.array([0.0, 2.0]),))
        assert result != ScanResult(["t_ps", "w"], values, (np.array([0.0, 1.0]),))

    def test_another_class_is_never_equal(self):
        assert AxisSpec("t", 0.0, 1.0, 3) != ("t", 0.0, 1.0, 3)
        assert ReservoirParams(1000.0, half_width=40.0).__eq__((1000.0, 40.0, 0.0)) is NotImplemented

    def test_equal_scalar_records_hash_alike(self):
        assert hash(ReservoirParams(1000.0, half_width=40.0)) == hash(ReservoirParams(1000, half_width=40, delta=0))
        assert len({ReservoirParams(1000.0, half_width=40.0), ReservoirParams(1000.0, half_width=40.0, delta=0.0)}) == 1
        assert hash(AxisSpec("t", 0.0, 1.0, 3)) == hash(AxisSpec("t", 0.0, 1.0, 3))
        assert hash(AxisSpec("t", 0.0, 1.0, 3)) != hash(AxisSpec("t", 0.0, 1.0, 4))

    @pytest.mark.parametrize("key", ["ScanSpec", "ScanResult", "ReservoirParams-array", "SiteDataset", "ExcitonTable"])
    def test_a_record_of_unhashable_fields_is_unhashable(self, key):
        # as the tuple of its fields: a mapping proxy, a list or an array has no hash
        with pytest.raises(TypeError, match="unhashable"):
            hash(_records()[key])
