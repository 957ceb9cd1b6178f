"""Exhaustive small scopes: every nonempty context over two small signatures.

The differentials elsewhere sample their inputs. Here every context below a
bound is tried, so "no counterexample found" reads "none exists in this
scope" (the small scope hypothesis: Jackson, *Software Abstractions*, 2006;
Andoni, Daniliuc, Khurshid & Marinov, 2002). The scopes are 2 states,
1 entity, 3 times (8 rows, 255 contexts) and 3 states, 1 entity, 2 times
(9 rows, 511 contexts): 766 contexts, each compared with the oracles on
both modes' verdicts and witnesses, the iterator map or conflict,
determinism, and the `.ctx` round trip.
"""

from itertools import combinations, product

import oracles
from ctxkit.core import Context, Signature
from ctxkit.formats import parse_context, render_context
from test_determinability import (
    assert_iterator_and_determinism_match_oracles,
    assert_matches_oracles,
)

SCOPES = (
    Signature(("s0", "s1"), ("e0",), ("0", "1", "2")),
    Signature(("s0", "s1", "s2"), ("e0",), ("0", "1")),
)


def every_context(sig):
    """Each nonempty set of rows over the signature, as a context."""
    rows = list(product(range(len(sig.states)), repeat=sig.cell_count()))
    for size in range(1, len(rows) + 1):
        for chosen in combinations(rows, size):
            yield Context.from_rows(sig, chosen)


def test_every_context_in_the_small_scopes_agrees_with_the_oracles():
    seen = 0
    for sig in SCOPES:
        for ctx in every_context(sig):
            for mode in ("literal", "windowed"):
                assert_matches_oracles(ctx, mode)
            assert_iterator_and_determinism_match_oracles(ctx)
            text = render_context(ctx)
            assert parse_context(text).context == ctx
            read_sig, kept, _, _ = oracles.parse_context_tokenwise(text)
            assert read_sig == sig and kept == [inst.cells for inst in ctx.instances]
            seen += 1
    assert seen == 255 + 511
