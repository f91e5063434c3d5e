package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// Domain tags of the canonical encodings; bump a tag whenever its
// encoding below changes so stale cache entries can never alias. The
// tags are fixed NUL-free literals, none a prefix of another, and every
// encoding starts with its tag followed by a NUL — so encodings of
// different models can never be equal and the result spaces cannot
// collide in a shared cache.
const (
	fingerprintVersion            = "edf.fp.v1"
	eventFingerprintVersion       = "edf.fp.events.v1"
	partitionedFingerprintVersion = "edf.fp.partitioned.v1"
)

// Fingerprint returns a content-addressed identity for a sporadic-set
// analysis: the hex SHA-256 of a canonical encoding of (task set,
// analyzer name, options). Two analyses share a fingerprint exactly when
// they are guaranteed to produce the same Result, so the fingerprint is a
// sound cache key for analysis results.
//
// Task names are excluded (they never influence a verdict); task order is
// included (it can influence effort counters such as revision order).
// ok is false when the options carry state the encoding cannot capture —
// today a non-nil Blocking function — in which case the analysis must not
// be cached.
func Fingerprint(ts model.TaskSet, analyzer string, opt core.Options) (fp string, ok bool) {
	return WorkloadFingerprint(workload.NewSporadic(ts), analyzer, opt)
}

// WorkloadFingerprint is the workload-polymorphic content address: the
// same contract as Fingerprint, with the encoding domain-separated by the
// workload model. Sporadic workloads keep the exact pre-workload
// encoding, so fingerprints already handed out (or persisted) stay valid.
func WorkloadFingerprint(wl workload.Workload, analyzer string, opt core.Options) (fp string, ok bool) {
	if opt.Blocking != nil {
		return "", false
	}
	var buf []byte
	if wl.Kind() == workload.Partitioned {
		buf = make([]byte, 0, 64+24*len(wl.PartTasks))
		buf = append(buf, partitionedFingerprintVersion...)
		buf = appendAnalysisHeader(buf, analyzer, opt)
		buf = binary.AppendVarint(buf, int64(len(wl.Processors)))
		for _, p := range wl.Processors {
			// Encode the effective speed so an omitted speed and an
			// explicit 1 address the same result.
			buf = binary.AppendVarint(buf, p.EffectiveSpeed())
		}
		buf = binary.AppendVarint(buf, int64(len(wl.PartTasks)))
		for _, t := range wl.PartTasks {
			buf = binary.AppendVarint(buf, t.WCET)
			buf = binary.AppendVarint(buf, t.Deadline)
			buf = binary.AppendVarint(buf, t.Period)
			buf = binary.AppendVarint(buf, t.Phase)
			buf = binary.AppendVarint(buf, t.CriticalSection)
			buf = binary.AppendVarint(buf, t.SelfSuspension)
			buf = binary.AppendVarint(buf, int64(len(t.Affinity)))
			for _, a := range t.Affinity {
				buf = binary.AppendVarint(buf, int64(a))
			}
		}
	} else if wl.Kind() == workload.Events {
		buf = make([]byte, 0, 64+32*len(wl.Events))
		buf = append(buf, eventFingerprintVersion...)
		buf = appendAnalysisHeader(buf, analyzer, opt)
		buf = binary.AppendVarint(buf, int64(len(wl.Events)))
		for _, t := range wl.Events {
			buf = binary.AppendVarint(buf, t.WCET)
			buf = binary.AppendVarint(buf, t.Deadline)
			buf = binary.AppendVarint(buf, int64(len(t.Stream)))
			for _, e := range t.Stream {
				buf = binary.AppendVarint(buf, e.Cycle)
				buf = binary.AppendVarint(buf, e.Offset)
			}
		}
	} else {
		ts := wl.Tasks
		buf = make([]byte, 0, 16*(len(ts)+2))
		buf = append(buf, fingerprintVersion...)
		buf = appendAnalysisHeader(buf, analyzer, opt)
		buf = binary.AppendVarint(buf, int64(len(ts)))
		for _, t := range ts {
			buf = binary.AppendVarint(buf, t.WCET)
			buf = binary.AppendVarint(buf, t.Deadline)
			buf = binary.AppendVarint(buf, t.Period)
			buf = binary.AppendVarint(buf, t.Phase)
			buf = binary.AppendVarint(buf, t.CriticalSection)
			buf = binary.AppendVarint(buf, t.SelfSuspension)
		}
	}
	sum := sha256.Sum256(buf)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:]), true
}

// appendAnalysisHeader encodes the model-independent identity parts —
// the NUL closing the domain tag, the analyzer name and the serializable
// options — exactly as the v1 sporadic encoding laid them out.
func appendAnalysisHeader(buf []byte, analyzer string, opt core.Options) []byte {
	buf = append(buf, 0)
	buf = append(buf, strings.ToLower(strings.TrimSpace(analyzer))...)
	buf = append(buf, 0)
	buf = append(buf, byte(opt.Arithmetic), byte(opt.RevisionOrder))
	buf = binary.AppendVarint(buf, opt.MaxIterations)
	buf = binary.AppendVarint(buf, opt.MaxLevel)
	buf = append(buf, opt.Bound...)
	buf = append(buf, 0)
	return buf
}
