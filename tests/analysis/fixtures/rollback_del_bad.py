"""Known-bad fixture for the rollback-completeness rule: state removed
with ``del``.

Two violations: a keyed entry and a list tail are deleted inside the
protected region, and the rollback restores neither root.
"""


class Platform:
    def _capture_hour(self):
        return {"clock": self.clock}

    def _rollback_hour(self, txn):
        self.clock = txn["clock"]

    def advance(self, row):
        txn = self._capture_hour()
        self.wal.begin_hour()
        try:
            self.clock += 1
            # Root `_waiting` loses an entry (finding 1).
            del self._waiting[row]
            # Root `_log` loses its tail (finding 2).
            del self._log[self.clock :]
            self.wal.append_hour({"clock": self.clock})
        except Exception:
            self._rollback_hour(txn)
            self.wal.abort_hour()
            raise
        self.wal.commit_hour(0, state_digest(self))
