"""SageAccessControl: ACLs, registration, the offer/request protocol."""

import pytest
from composition_oracle import BasicRule
from per_request_oracle import block_histories, stage_keys

from repro.core.access_control import SageAccessControl
from repro.dp.budget import PrivacyBudget
from repro.errors import AccessDeniedError, BudgetExceededError, InvalidBudgetError


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

    def test_refused_request_leaves_stream_untouched(self, access):
        with pytest.raises(BudgetExceededError):
            access.request([0, 1], PrivacyBudget(1.5, 0.0))
        rows = access.accountant.rows_for_keys([0, 1])
        assert access.max_epsilon(rows, 0.0) == pytest.approx(1.0)
        assert access.accountant.charges == []

    def test_unregistered_key_rejected(self, access):
        with pytest.raises(InvalidBudgetError):
            access.request([0, 99], PrivacyBudget(0.1, 0.0))
        assert access.accountant.charges == []

    def test_max_epsilon_is_the_tightest_block(self, access):
        access.request([0], PrivacyBudget(0.7, 0.0))
        access.request([1], PrivacyBudget(0.2, 0.0))
        rows = access.accountant.rows_for_keys([0, 1, 2])
        assert access.max_epsilon(rows, 0.0) == pytest.approx(0.3)

    def test_offer_with_floor_matches_history_oracle(self, access):
        """The floor filter in offer_blocks is one batched admit pass and
        must agree with the history oracle over each block's logged
        history."""
        access.request([0], PrivacyBudget(0.95, 0.0))
        access.request([0, 1], PrivacyBudget(0.02, 0.0))
        floor = PrivacyBudget(0.1, 0.0)
        histories = block_histories(access.accountant)
        expected = [
            k for k in access.offer_blocks()
            if BasicRule(1.0, 1e-6).admits(histories[k], floor)
        ]
        assert access.offer_blocks(min_budget=floor) == expected == [1, 2]


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

    def test_empty_acl_authorizes_nobody(self):
        """Only ``None`` means "no ACL": an empty principal list fails
        closed, for named and unnamed principals alike."""
        ac = SageAccessControl(1.0, 1e-6, authorized_principals=[])
        ac.register_blocks([0, 1])
        floor = PrivacyBudget(0.1, 0.0)
        for principal in ("fraud-team", None):
            with pytest.raises(AccessDeniedError):
                ac.offer_blocks(principal=principal)
            with pytest.raises(AccessDeniedError):
                ac.request([0], floor, principal=principal)
            with pytest.raises(AccessDeniedError):
                ac.offer_recent_blocks(floor, 1, principal=principal)
        assert ac.accountant.charges == []

    @pytest.mark.parametrize(
        "endpoint", ["admit_rows", "request_many", "stage_request", "commit_staged"]
    )
    def test_empty_acl_refuses_every_principal_checked_endpoint(self, endpoint):
        """The endpoints the test above leaves out fail closed too, and a
        refused one stages and charges nothing."""
        ac = SageAccessControl(1.0, 1e-6, authorized_principals=[])
        ac.register_blocks([0, 1])
        floor = PrivacyBudget(0.1, 0.0)
        calls = {
            "admit_rows": lambda: ac.admit_rows(floor, principal="fraud-team"),
            "request_many": lambda: ac.request_many(
                [([0], floor)], principal="fraud-team"
            ),
            "stage_request": lambda: stage_keys(
                ac, [0], floor, principal="fraud-team"
            ),
            "commit_staged": lambda: ac.commit_staged(principal="fraud-team"),
        }
        ac.begin_staging()
        with pytest.raises(AccessDeniedError):
            calls[endpoint]()
        assert ac.staging_active
        dropped = ac.abort_staged()
        assert dropped == []
        assert ac.accountant.charges == []


class TestRegistration:
    def test_batch_registration_registers_every_block(self, access):
        access.register_blocks([10, 11, 12])
        assert access.offer_blocks() == [0, 1, 2, 10, 11, 12]
        access.request([10, 11], PrivacyBudget(0.2, 0.0))
        rows = access.accountant.rows_for_keys([10])
        assert access.max_epsilon(rows, 0.0) == pytest.approx(0.8)

    def test_block_registered_later_can_be_charged(self, access):
        access.register_block(7)
        access.request([7], PrivacyBudget(0.2, 0.0))
        rows = access.accountant.rows_for_keys([7])
        assert access.max_epsilon(rows, 0.0) == pytest.approx(0.8)

    def test_duplicate_registration_rejected(self, access):
        with pytest.raises(InvalidBudgetError):
            access.register_block(1)
        assert access.offer_blocks() == [0, 1, 2]

    def test_rollback_registrations_drops_the_newest_blocks(self, access):
        access.register_blocks([10, 11])
        access.rollback_registrations(3)
        assert access.offer_blocks() == [0, 1, 2]
        access.register_blocks([10, 11])  # the dropped keys register again
        assert access.offer_blocks() == [0, 1, 2, 10, 11]

    def test_failed_batch_registration_keeps_the_keys_before_the_duplicate(
        self, access
    ):
        """A mid-batch duplicate raises and leaves the keys before it
        registered, in order."""
        with pytest.raises(InvalidBudgetError):
            access.register_blocks([10, 11, 11])
        assert access.offer_blocks() == [0, 1, 2, 10, 11]
