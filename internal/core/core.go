package core

// ModelRevision names the modeled behaviour this build implements: two
// builds at the same revision turn one spec into the same report bytes.
// spec.CanonicalHash mixes it in, so bumping it gives every spec a new
// identity, and no cache or store entry, fleet result, resume-journal
// record or remote peer from an earlier revision is matched with this
// one. Bump it in any change that moves the canonical report of an
// unchanged spec (testdata/report_digests.json catches such a move).
//
//   - 1: every build whose hashes mixed in no revision.
//   - 2: slave-response prediction is pure; only Observe advances a
//     wait model, so each wait cycle is counted once.
//   - 3: a transition's success report rides on the next channel
//     access: it pays its payload words but no startup.
//   - 4: the leader predicts remote masters from the AHB protocol: the
//     INCR rebuild of a burst that lost the grant with beats left, and
//     the rise of a request line whose last two low runs were equally
//     long.
//   - 5: the leader predicts three events the bus protocol fixes: a
//     remote master's request fall on the cycle after its fixed-length
//     burst's final beat, the burst start (a decline, not IDLE) when a
//     master that lost the grant on its final beat is granted again,
//     and the second cycle of a remote slave's two-cycle ERROR, RETRY
//     or SPLIT response.
const ModelRevision = 5
