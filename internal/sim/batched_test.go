package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// fingerprintSum hashes a run's fingerprint so a test can pin it compactly.
func fingerprintSum(res *Result) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(res.Fingerprint())))
}

// TestBatchedPathFingerprintIdentical is the determinism contract of the
// allocation-lean tick path: driving every node through node.Step into one
// reused envelope slice must reproduce, byte for byte, the fingerprint the
// former allocating path (Process / HandleGameUpdate, one fresh slice per
// message) produced for this seed. That fingerprint is pinned below as a
// sha256. The scenario splits under load, so the comparison covers
// forwarding, migration and topology changes, not just quiet traffic.
func TestBatchedPathFingerprintIdentical(t *testing.T) {
	const allocatingPath = "a264feb0305c5470a16bb144f28f28eb603b1f4affb1aab80a154ed0057517b1"
	run := func() string {
		res, err := mustNew(t, stepTestConfig(11)).Run()
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintSum(res)
	}
	batched := run()
	if batched != allocatingPath {
		t.Errorf("batched path fingerprint sha256 %s, allocating path gave %s", batched, allocatingPath)
	}
	if again := run(); again != batched {
		t.Errorf("batched path is not self-deterministic")
	}
}
