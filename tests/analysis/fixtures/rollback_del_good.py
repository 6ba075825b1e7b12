"""Fixed twin of ``rollback_del_bad.py``: both roots a ``del`` shrinks
are captured before the hour and restored by the rollback."""


class Platform:
    def _capture_hour(self):
        return {
            "clock": self.clock,
            "waiting": dict(self._waiting),
            "log": list(self._log),
        }

    def _rollback_hour(self, txn):
        self.clock = txn["clock"]
        self._waiting = txn["waiting"]
        self._log = txn["log"]

    def advance(self, row):
        txn = self._capture_hour()
        self.wal.begin_hour()
        try:
            self.clock += 1
            del self._waiting[row]
            del self._log[self.clock :]
            self.wal.append_hour({"clock": self.clock})
        except Exception:
            self._rollback_hour(txn)
            self.wal.abort_hour()
            raise
        self.wal.commit_hour(0, state_digest(self))
