"""Edge cases of the KMP machinery behind window-mode localization.

``kmp_failure`` builds the failure table the window automaton's rows
fall back along; ``PathLocalizer._operator`` decides which edges an
observed symbol (indexed or plain) advances along.  Their corner cases
(empty patterns, single symbols, self-similar patterns, index
matching) get dedicated coverage here.
"""

from __future__ import annotations

import random

import pytest

from repro.core.interleave import interleave_flows
from repro.core.message import IndexedMessage, Message, MessageCombination
from repro.selection.localization import PathLocalizer, kmp_failure


def sym(name: str) -> Message:
    return Message(name, 1, source="P", destination="Q")


class TestKmpFailure:
    def test_empty_pattern(self):
        assert kmp_failure([]) == []

    def test_single_symbol(self):
        assert kmp_failure([sym("a")]) == [0]

    def test_repeated_identical_symbols(self):
        a = sym("a")
        # aaaa...: every prefix borders the next-shorter prefix
        assert kmp_failure([a] * 6) == [0, 1, 2, 3, 4, 5]

    def test_classic_aba_pattern(self):
        a, b = sym("a"), sym("b")
        assert kmp_failure([a, b, a, b, a]) == [0, 0, 1, 2, 3]
        assert kmp_failure([a, a, b, a, a, a]) == [0, 1, 0, 1, 2, 2]

    @pytest.mark.parametrize("seed", range(6))
    def test_online_extension_equals_batch(self, seed):
        # a window grows one record at a time: the table of every grown
        # prefix is that prefix of the whole pattern's table
        rng = random.Random(seed)
        alphabet = [sym("a"), sym("b"), sym("c")]
        pattern = [rng.choice(alphabet) for _ in range(rng.randrange(12))]
        failure = kmp_failure(pattern)
        for length in range(len(pattern) + 1):
            assert kmp_failure(pattern[:length]) == failure[:length]

    def test_indexed_messages_compare_by_index(self):
        a = sym("a")
        one, two = IndexedMessage(a, 1), IndexedMessage(a, 2)
        # 1:a and 2:a are distinct symbols: no self-border
        assert kmp_failure([one, two, one, two]) == [0, 0, 1, 2]
        assert kmp_failure([one, one, one]) == [0, 1, 2]


def edge_pairs(operator):
    """The ``(source, target)`` state-ID pairs an operator advances
    along (empty for ``None``: the symbol labels no edge)."""
    if operator is None:
        return set()
    assert list(operator.src) == sorted(operator.src)
    return set(zip(operator.src, operator.tgt))


def labelled_pairs(interleaved, wanted):
    """``(source, target)`` pairs of the edges whose label satisfies
    *wanted*, read straight off the CSR arrays."""
    offsets, msg_ids, targets = interleaved.csr_adjacency()
    table = interleaved.indexed_messages
    return {
        (sid, targets[e])
        for sid in range(len(offsets) - 1)
        for e in range(offsets[sid], offsets[sid + 1])
        if wanted(table[msg_ids[e]])
    }


class TestMatchingMessageIds:
    @pytest.fixture
    def localizer(self, cc_flow):
        interleaved = interleave_flows([cc_flow], copies=2)
        traced = MessageCombination(
            [
                cc_flow.message_by_name("ReqE"),
                cc_flow.message_by_name("GntE"),
            ]
        )
        return PathLocalizer(interleaved, traced)

    def edges(self, localizer, symbol):
        return edge_pairs(
            localizer._operator(localizer._compiled_tables(), symbol)
        )

    def test_indexed_symbol_matches_one_instance(self, localizer, cc_flow):
        req = IndexedMessage(cc_flow.message_by_name("ReqE"), 1)
        expected = labelled_pairs(
            localizer.interleaved, lambda label: label == req
        )
        assert expected
        assert self.edges(localizer, req) == expected

    def test_plain_symbol_matches_every_instance(self, localizer, cc_flow):
        req = cc_flow.message_by_name("ReqE")
        expected = labelled_pairs(
            localizer.interleaved, lambda label: label.message == req
        )
        table = localizer.interleaved.indexed_messages
        assert {m.index for m in table if m.message == req} == {1, 2}
        assert self.edges(localizer, req) == expected

    def test_plain_and_indexed_agree(self, localizer, cc_flow):
        req = cc_flow.message_by_name("ReqE")
        indexed = set().union(
            *(self.edges(localizer, IndexedMessage(req, i)) for i in (1, 2))
        )
        assert self.edges(localizer, req) == indexed

    def test_unknown_instance_matches_nothing(self, localizer, cc_flow):
        req = cc_flow.message_by_name("ReqE")
        assert self.edges(localizer, IndexedMessage(req, 99)) == set()

    def test_foreign_message_matches_nothing(self, localizer):
        assert self.edges(localizer, sym("zz")) == set()

    def test_non_message_raises(self, localizer):
        with pytest.raises(TypeError, match="not a message"):
            self.edges(localizer, "ReqE")
