"""SageAccessControl: ACLs, contexts, the offer/request protocol."""

import pytest
from composition_oracle import BasicRule
from per_request_oracle import block_histories

from repro.core.access_control import SageAccessControl
from repro.dp.budget import PrivacyBudget
from repro.errors import AccessDeniedError, BudgetExceededError


@pytest.fixture
def access():
    ac = SageAccessControl(1.0, 1e-6)
    for key in range(3):
        ac.register_block(key)
    return ac


class TestOfferRequest:
    def test_offer_lists_usable_blocks(self, access):
        assert access.offer_blocks() == [0, 1, 2]

    def test_request_charges(self, access):
        access.request([0, 1], PrivacyBudget(0.6, 0.0))
        assert access.max_epsilon([0], 0.0) == pytest.approx(0.4)

    def test_offer_excludes_exhausted(self, access):
        access.request([0], PrivacyBudget(1.0, 1e-6))
        assert access.offer_blocks() == [1, 2]

    def test_offer_with_floor(self, access):
        access.request([1], PrivacyBudget(0.8, 0.0))
        assert access.offer_blocks(min_budget=PrivacyBudget(0.5, 0.0)) == [0, 2]

    def test_over_request_raises(self, access):
        with pytest.raises(BudgetExceededError):
            access.request([0], PrivacyBudget(1.5, 0.0))

    def test_stream_loss_bound_tracks(self, access):
        access.request([2], PrivacyBudget(0.4, 0.0))
        assert access.stream_loss_bound().epsilon == pytest.approx(0.4)


class TestACLs:
    def test_unauthorized_principal_denied(self):
        ac = SageAccessControl(1.0, 1e-6, authorized_principals=["fraud-team"])
        ac.register_block(0)
        with pytest.raises(AccessDeniedError):
            ac.offer_blocks(principal="ads-team")
        with pytest.raises(AccessDeniedError):
            ac.request([0], PrivacyBudget(0.1), principal="ads-team")

    def test_authorized_principal_allowed(self):
        ac = SageAccessControl(1.0, 1e-6, authorized_principals=["fraud-team"])
        ac.register_block(0)
        assert ac.offer_blocks(principal="fraud-team") == [0]

    def test_recent_block_offer_enforces_acl(self):
        ac = SageAccessControl(1.0, 1e-6, authorized_principals=["fraud-team"])
        ac.register_blocks([0, 1])
        floor = PrivacyBudget(0.1, 0.0)
        with pytest.raises(AccessDeniedError):
            ac.offer_recent_blocks(floor, 1, principal="ads-team")
        with pytest.raises(AccessDeniedError):
            ac.offer_recent_blocks(floor, 1)  # an ACL needs a named principal
        assert ac.offer_recent_blocks(floor, 1, principal="fraud-team").tolist() == [1]

    def test_no_acl_means_open(self, access):
        assert access.offer_blocks(principal=None) == [0, 1, 2]


class TestContexts:
    def test_context_has_separate_ceiling(self, access):
        access.add_context("dev-a", 0.5, 1e-6)
        access.request([0], PrivacyBudget(0.4, 0.0), context="dev-a")
        # dev-a may only take 0.1 more on block 0; the stream allows 0.6.
        assert not access.can_request([0], PrivacyBudget(0.2, 0.0), context="dev-a")
        assert access.can_request([0], PrivacyBudget(0.2, 0.0))

    def test_context_denial_leaves_stream_untouched(self, access):
        access.add_context("dev-a", 0.3, 1e-6)
        with pytest.raises(AccessDeniedError):
            access.request([0], PrivacyBudget(0.4, 0.0), context="dev-a")
        assert access.max_epsilon([0], 0.0) == pytest.approx(1.0)

    def test_blocks_registered_after_context_creation(self, access):
        access.add_context("dev-a", 0.5, 1e-6)
        access.register_block(7)
        access.request([7], PrivacyBudget(0.2, 0.0), context="dev-a")

    def test_unknown_context_rejected(self, access):
        with pytest.raises(AccessDeniedError):
            access.request([0], PrivacyBudget(0.1), context="nope")

    def test_unknown_context_rejected_even_with_no_usable_blocks(self):
        ac = SageAccessControl(1.0, 1e-6)  # no blocks registered at all
        with pytest.raises(AccessDeniedError):
            ac.offer_blocks(context="nope")

    def test_duplicate_context_rejected(self, access):
        access.add_context("dev-a", 0.5, 1e-6)
        with pytest.raises(AccessDeniedError):
            access.add_context("dev-a", 0.5, 1e-6)

    def test_max_epsilon_respects_context(self, access):
        access.add_context("dev-a", 0.25, 1e-6)
        assert access.max_epsilon([0], 0.0, context="dev-a") == pytest.approx(0.25)

    def test_batch_registration_reaches_every_ledger_set(self, access):
        access.add_context("dev-a", 0.5, 1e-6)
        access.register_blocks([10, 11, 12])
        assert access.offer_blocks() == [0, 1, 2, 10, 11, 12]
        access.request([10, 11], PrivacyBudget(0.2, 0.0), context="dev-a")
        rows = access.accountant.rows_for_keys([10])
        assert access.max_epsilon(rows, 0.0, context="dev-a") == pytest.approx(0.3)

    def test_failed_batch_registration_keeps_ledger_sets_consistent(self, access):
        """A mid-batch duplicate must not leave blocks registered in the
        stream accountant but missing from the contexts."""
        from repro.errors import InvalidBudgetError

        access.add_context("dev-a", 0.5, 1e-6)
        with pytest.raises(InvalidBudgetError):
            access.register_blocks([10, 11, 11])
        offered = access.offer_blocks(context="dev-a")  # must not crash
        assert offered == [0, 1, 2, 10, 11]

    def test_context_offer_uses_batched_filter(self, access):
        """The context filter in offer_blocks is one batched admit pass and
        must agree with the history oracle over each block's logged
        history."""
        access.add_context("dev-a", 0.5, 1e-6)
        access.request([0], PrivacyBudget(0.45, 0.0), context="dev-a")
        floor = PrivacyBudget(0.1, 0.0)
        offered = access.offer_blocks(min_budget=floor, context="dev-a")
        ctx = access._require_context("dev-a")
        histories = block_histories(ctx)
        expected = [
            k for k in access.offer_blocks(min_budget=floor)
            if BasicRule(0.5, 1e-6).admits(histories[k], floor)
        ]
        assert offered == expected == [1, 2]
