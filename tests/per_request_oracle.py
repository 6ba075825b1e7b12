"""The per-request drive: the parity oracle for the staged hour.

``Sage.advance`` always stages: every proposal is validated against the
hour's open batch, and the hour commits through one ``request_many`` call.
The reference it must match byte for byte charges each granted proposal
at once through ``SageAccessControl.request``, with no batch open and
therefore no shared scans.  That drive lives only here, as a patch of the
access layer, so ``src/`` carries no option for it:

    with per_request_drive():
        sage.advance(1.0)

Inside the block ``SageAccessControl.begin_staging`` opens nothing and
``stage_request`` charges through ``request``; the real ``commit_staged``
then finds nothing to commit.  On a clean exit the guard asserts that no
accountant opened a staged batch and that ``request_many`` was never
called, so a parity test cannot silently compare the staged drive with
itself.  Use it on volatile platforms only: a durable hour would write
ahead an empty request batch.
"""

from contextlib import contextmanager
from unittest import mock

from repro.core.access_control import SageAccessControl
from repro.core.accountant import BlockAccountant

__all__ = ["per_request_drive"]


@contextmanager
def per_request_drive():
    """Charge every proposal made inside the block immediately, unstaged."""
    seen = {"batches_opened": 0, "request_many_calls": 0}
    open_batch = BlockAccountant.begin_staging
    settle_batch = SageAccessControl.request_many

    def counting_open(self):
        seen["batches_opened"] += 1
        return open_batch(self)

    def counting_settle(self, *args, **kwargs):
        seen["request_many_calls"] += 1
        return settle_batch(self, *args, **kwargs)

    def charge_now(self, keys, budget, label="", principal=None):
        self.request(keys, budget, label=label, principal=principal)

    with mock.patch.object(
        SageAccessControl, "begin_staging", lambda self: None
    ), mock.patch.object(
        SageAccessControl, "stage_request", charge_now
    ), mock.patch.object(
        SageAccessControl, "request_many", counting_settle
    ), mock.patch.object(
        BlockAccountant, "begin_staging", counting_open
    ):
        yield
    assert seen == {"batches_opened": 0, "request_many_calls": 0}, (
        f"the per-request drive ran staged: {seen}"
    )
