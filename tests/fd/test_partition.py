"""Stripped-partition data structure tests."""

from repro.dataframe import DataFrame
from repro.fd import StrippedPartition


def refines(partition: StrippedPartition, other: StrippedPartition) -> bool:
    """True if every class of ``partition`` lies inside a class of ``other``.

    Rows absent from a stripped partition form singleton classes, which
    are contained in any class, so only the explicit classes matter.
    """
    owner: dict[int, int] = {}
    for class_id, group in enumerate(other.classes):
        for row in group:
            owner[row] = class_id
    for group in partition.classes:
        first = owner.get(group[0], -1 - group[0])
        for row in group[1:]:
            if owner.get(row, -1 - row) != first:
                return False
    return True


def frame():
    return DataFrame.from_dict(
        {
            "A": [1, 1, 2, 2, 3],
            "B": ["x", "x", "x", "y", "y"],
            "C": [1, 2, 3, 4, 5],
        }
    )


class TestConstruction:
    def test_singletons_stripped(self):
        partition = StrippedPartition.from_column(frame(), "A")
        assert partition.classes == [[0, 1], [2, 3]]

    def test_key_column_empty(self):
        partition = StrippedPartition.from_column(frame(), "C")
        assert partition.num_classes == 0
        assert partition.error == 0  # a key column is a superkey

    def test_empty_attribute_set_single_class(self):
        partition = StrippedPartition.from_columns(frame(), [])
        assert partition.num_classes == 1
        assert partition.size == 5

    def test_missing_values_group_together(self):
        data = DataFrame.from_dict({"A": [None, None, 1]})
        partition = StrippedPartition.from_column(data, "A")
        assert partition.classes == [[0, 1]]


class TestErrorMeasure:
    def test_error_formula(self):
        partition = StrippedPartition.from_column(frame(), "A")
        assert partition.size == 4
        assert partition.num_classes == 2
        assert partition.error == 2

    def test_superkey_zero_error(self):
        assert StrippedPartition.from_column(frame(), "C").error == 0


class TestProduct:
    def test_product_equals_direct(self):
        data = frame()
        left = StrippedPartition.from_column(data, "A")
        right = StrippedPartition.from_column(data, "B")
        assert left.product(right) == StrippedPartition.from_columns(
            data, ["A", "B"]
        )

    def test_product_commutative(self):
        data = frame()
        left = StrippedPartition.from_column(data, "A")
        right = StrippedPartition.from_column(data, "B")
        assert left.product(right) == right.product(left)

    def test_product_refines_inputs(self):
        data = frame()
        left = StrippedPartition.from_column(data, "A")
        right = StrippedPartition.from_column(data, "B")
        combined = left.product(right)
        assert refines(combined, left)
        assert refines(combined, right)

    def test_product_with_self_is_identity(self):
        partition = StrippedPartition.from_column(frame(), "A")
        assert partition.product(partition) == partition


class TestRefines:
    def test_refinement_detected(self):
        data = frame()
        ab = StrippedPartition.from_columns(data, ["A", "B"])
        a = StrippedPartition.from_column(data, "A")
        assert refines(ab, a)
        assert not refines(a, ab)


class TestGeneratorInput:
    def test_generator_groups_are_not_dropped(self):
        # Regression: the old __init__ measured group size with
        # len(list(group)), consuming generator groups before sorting
        # them — every generator-backed class was silently dropped.
        partition = StrippedPartition(
            (iter(group) for group in ([1, 0], [2, 3], [4])), n_rows=5
        )
        assert partition.classes == [[0, 1], [2, 3]]
        assert partition.size == 4
        assert partition.error == 2

    def test_generator_of_generators_matches_lists(self):
        from_lists = StrippedPartition([[0, 1], [3, 4]], n_rows=6)
        from_generators = StrippedPartition(
            (iter(group) for group in ([0, 1], [3, 4])), n_rows=6
        )
        assert from_generators == from_lists

    def test_product_accepts_generator_built_partitions(self):
        left = StrippedPartition((iter(g) for g in ([0, 1, 2, 3],)), n_rows=4)
        right = StrippedPartition((iter(g) for g in ([0, 1], [2, 3])), n_rows=4)
        assert left.product(right).classes == [[0, 1], [2, 3]]
