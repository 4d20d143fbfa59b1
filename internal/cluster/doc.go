// Package cluster turns a fleet of verification-service nodes
// (internal/serve) into one fault-tolerant endpoint. A Coordinator
// consistent-hashes each named configuration onto the member ring and
// forwards /v1/verify, /v1/sweep, /v1/enumerate, PATCH and
// /v1/subscribe for it to that owner — so reads always see the owner's
// latest PATCHed version — with per-attempt deadlines,
// bounded retries (exponential backoff with jitter) and failover to the
// next replica when a member dies mid-request.
//
// The pieces:
//
//   - Ring: a consistent-hash ring with virtual nodes. Owners(key, n)
//     walks the ring to yield the replica order for a key, so routing is
//     stable under membership change — a joining or dying node moves
//     only the keys it owns, never reshuffles the fleet.
//
//   - Detector: a phi-accrual-style failure detector. Each successful
//     health probe is a heartbeat; the suspicion level phi grows with
//     the time since the last heartbeat measured against the observed
//     inter-arrival distribution, and crosses the suspect then the dead
//     threshold. Unlike a fixed timeout, the detector adapts to each
//     member's actual probe cadence.
//
//   - Coordinator: the HTTP front end. It journals the vectors of every
//     in-flight enumeration (bounded, deduplicated by ThreatVector
//     identity), and when the serving member dies mid-stream it carries
//     the journal to the next owner as a fingerprint-bound checkpoint
//     (PUT /v1/checkpoints/{id}), re-issues the request under the same
//     requestId, and deduplicates the replayed prefix — the client sees
//     one uninterrupted stream with zero duplicated and zero lost
//     vectors. Soundness rests on the enumeration antichain argument
//     (see core.EnumerateThreatsResumable) and on the campaign
//     fingerprint, which rejects a journal from a different
//     configuration, query or encoding version with 409 instead of
//     resuming it.
//
// See DESIGN.md §14 for the architecture and the consistency argument.
package cluster
