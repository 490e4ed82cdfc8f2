"""Safe clause-expression evaluation."""

import pytest
from hypothesis import given, strategies as st

from repro.core import exprs
from repro.core.exprs import c_to_python, evaluate, free_names
from repro.errors import ClauseError, PragmaSyntaxError


class TestCToPython:
    def test_logical_operators(self):
        assert c_to_python("a && b") == "a  and  b"
        assert c_to_python("a || b") == "a  or  b"

    def test_not_vs_not_equal(self):
        assert c_to_python("!a") == " not a"
        assert c_to_python("a != b") == "a != b"

    def test_ternary_rejected(self):
        with pytest.raises(PragmaSyntaxError):
            c_to_python("a ? b : c")


class TestEvaluate:
    @pytest.mark.parametrize("expr,vars,expected", [
        ("rank-1", {"rank": 3}, 2),
        ("(rank+1)%nprocs", {"rank": 3, "nprocs": 4}, 0),
        ("rank%2==0", {"rank": 2}, True),
        ("rank%2==0 && rank>0", {"rank": 0}, False),
        ("rank==0 || rank==nprocs-1", {"rank": 4, "nprocs": 5}, True),
        ("!(rank==1)", {"rank": 1}, False),
        ("2*size1", {"size1": 7}, 14),
    ])
    def test_expressions(self, expr, vars, expected):
        assert evaluate(expr, vars) == expected

    def test_unknown_name_rejected(self):
        with pytest.raises(PragmaSyntaxError, match="unknown name"):
            evaluate("rank + bogus", {"rank": 0})

    def test_function_calls_rejected(self):
        with pytest.raises(PragmaSyntaxError):
            evaluate("__import__('os')", {})

    def test_attribute_access_rejected(self):
        with pytest.raises(PragmaSyntaxError):
            evaluate("rank.__class__", {"rank": 1})

    def test_subscript_rejected(self):
        with pytest.raises(PragmaSyntaxError):
            evaluate("a[0]", {"a": [1]})

    def test_syntax_error_reported(self):
        with pytest.raises(PragmaSyntaxError, match="cannot parse"):
            evaluate("rank +", {"rank": 0})

    @pytest.mark.parametrize("expr", ["rank%(nprocs-nprocs)",
                                      "rank/0", "2.0**100000"])
    def test_arithmetic_error_is_clause_error(self, expr):
        with pytest.raises(ClauseError, match="arithmetic error") as info:
            evaluate(expr, {"rank": 1, "nprocs": 4})
        assert repr(expr) in str(info.value)

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=1, max_value=64))
    def test_property_ring_expression_in_range(self, rank, nprocs):
        if rank >= nprocs:
            rank = rank % nprocs
        v = {"rank": rank, "nprocs": nprocs}
        nxt = evaluate("(rank+1)%nprocs", v)
        prev = evaluate("(rank-1+nprocs)%nprocs", v)
        assert 0 <= nxt < nprocs
        assert 0 <= prev < nprocs
        assert evaluate("(rank+1)%nprocs", {"rank": prev,
                                            "nprocs": nprocs}) == rank


class TestFreeNames:
    def test_names_extracted(self):
        assert free_names("(rank+1)%nprocs") == {"rank", "nprocs"}
        assert free_names("3+4") == set()
        assert free_names("a && !b") == {"a", "b"}

    def test_free_names_of_unsupported_syntax(self):
        # Not whitelisted, so not compiled: the names come from the
        # parse tree as they always have.
        assert free_names("a[0]") == {"a"}
        assert free_names("f(x)") == {"f", "x"}

    def test_free_names_is_a_fresh_set(self):
        names = free_names("rank+1")
        names.add("other")
        assert free_names("rank+1") == {"rank"}


class TestCompileMemo:
    @pytest.mark.parametrize("expr,vars", [
        ("rank +", {"rank": 0}),
        ("a[0]", {"a": [1]}),
        ("f(x)", {"x": 1}),
        ("rank + bogus", {"rank": 0}),
        ("a ? b : c", {"a": 1, "b": 2, "c": 3}),
    ])
    def test_same_error_on_every_call(self, expr, vars):
        messages = []
        for _ in range(2):
            with pytest.raises(PragmaSyntaxError) as info:
                evaluate(expr, vars)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_missing_name_is_checked_per_call(self):
        assert evaluate("rank-1", {"rank": 3}) == 2
        with pytest.raises(PragmaSyntaxError) as info:
            evaluate("rank-1", {"nprocs": 4})
        assert str(info.value) == (
            "clause expression 'rank-1' references unknown name "
            "'rank'; known: ['nprocs']")
        assert evaluate("rank-1", {"rank": 5}) == 4

    def test_first_offending_node_depends_on_the_bindings(self):
        # The walk reports the first bad node under this call's
        # bindings: an unbound name ahead of the unsupported subscript.
        with pytest.raises(PragmaSyntaxError, match="unknown name 'b'"):
            evaluate("b + a[0]", {})
        with pytest.raises(PragmaSyntaxError, match=r"\(Subscript\)"):
            evaluate("b + a[0]", {"b": 1, "a": [1]})

    def test_variables_not_mutated(self):
        variables = {"rank": 2, "nprocs": 4}
        before = dict(variables)
        assert evaluate("(rank+1)%nprocs", variables) == 3
        assert evaluate("rank==0 || rank==nprocs-1", variables) is False
        assert variables == before
        assert list(variables) == list(before)

    def test_memo_is_bounded(self):
        assert exprs._compiled.cache_info().maxsize is not None
