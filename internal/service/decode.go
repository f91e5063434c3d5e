package service

import (
	"encoding/json"
	"reflect"
	"strconv"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/workload"
)

// The hot replies decode in one walk on the request walker's scanner
// (workload.Scanner), which checks every byte it consumes as json.Valid
// would, so the walk that types each member is also the body's only
// check. The walk takes the bodies the daemons write and skips unknown
// keys. Anything it does not take goes to encoding/json instead, into a
// method-free conversion of the reset value, so the result equals
// json.Unmarshal's for every body: a syntax error, a repeated key
// (encoding/json merges the occurrences), a value of the wrong kind, a
// number its field cannot hold, or a body that is not an object.
// FuzzReplyJSON checks this against method-free twins of the reply types.

// UnmarshalJSON replaces r with the reply in data in one walk.
func (r *AnalyzeResponse) UnmarshalJSON(data []byte) error {
	type plain AnalyzeResponse
	return decodeReply(data, r, (*plain)(r))
}

// UnmarshalJSON replaces r with the reply in data in one walk.
func (r *ProposeResponse) UnmarshalJSON(data []byte) error {
	type plain ProposeResponse
	return decodeReply(data, r, (*plain)(r))
}

// UnmarshalJSON replaces r with the reply in data in one walk, the
// embedded Placement's members included. Placement itself has no
// UnmarshalJSON, which PartitionResponse would promote.
func (r *PartitionResponse) UnmarshalJSON(data []byte) error {
	type plain PartitionResponse
	return decodeReply(data, r, (*plain)(r))
}

// UnmarshalJSON replaces r with the reply in data in one walk.
func (r *SessionResponse) UnmarshalJSON(data []byte) error {
	type plain SessionResponse
	return decodeReply(data, r, (*plain)(r))
}

// UnmarshalJSON replaces r with the reply in data in one walk.
func (r *CommitResponse) UnmarshalJSON(data []byte) error {
	type plain CommitResponse
	return decodeReply(data, r, (*plain)(r))
}

// decodeReply resets *r and decodes data into it: by the walk, or, for a
// body the walk does not take or whose check fails, by json.Unmarshal
// into plain, *r under a method-free type.
func decodeReply[T any](data []byte, r *T, plain any) error {
	var zero T
	*r = zero
	if s := (replyScanner{workload.NewScanner(data)}); s.value(r) && s.End() {
		return nil
	}
	*r = zero
	return json.Unmarshal(data, plain)
}

// The wire keys of each reply type, in the order of its fields.
var (
	analyzeKeys   = []string{"name", "model", "analyzer", "result", "wall_ns", "cached", "fingerprint"}
	resultKeys    = []string{"verdict", "iterations", "revisions", "max_level", "failure_interval", "bound", "bound_kind"}
	proposeKeys   = []string{"admitted", "result", "utilization", "committed", "pending", "escalated", "path"}
	sessionKeys   = []string{"id", "model", "analyzer", "committed", "pending", "utilization"}
	commitKeys    = []string{"moved", "committed", "utilization"}
	partitionKeys = []string{"name", "model", "analyzer", "feasible", "heuristic", "assignment", "processors",
		"attempts", "counterexample", "stats", "wall_ns"}
	reportKeys = []string{"processor", "name", "speed", "tasks", "utilization", "utilization_exact", "verdict",
		"iterations", "wall_ns"}
	attemptKeys   = []string{"heuristic", "placed", "failed_task", "failed_task_name", "rejections"}
	rejectionKeys = []string{"processor", "reason"}
	statsKeys     = []string{"bin_checks", "cache_hits", "gate_rejections", "promotions"}
)

// vocabulary holds the fixed words replies carry: verdicts, bound kinds,
// workload models, analyzer names, heuristics, decision paths and
// rejection reasons. A decoded reply shares these strings instead of
// allocating its own, so a client that keeps many replies keeps one copy
// of each word.
var vocabulary = func() map[string]string {
	words := []string{
		core.Feasible.String(), core.Infeasible.String(), core.NotAccepted.String(), core.Undecided.String(),
		string(bounds.KindBaruah), string(bounds.KindGeorge), string(bounds.KindSuperposition),
		string(bounds.KindBusyPeriod), string(bounds.KindHyperperiod), string(bounds.KindNone),
		string(workload.Sporadic), string(workload.Events), string(workload.Partitioned),
		obs.PathGate, obs.PathFast, obs.PathCascade, "affinity",
	}
	for _, h := range partition.AllHeuristics() {
		words = append(words, string(h))
	}
	words = append(words, engine.Names()...)
	m := make(map[string]string, len(words))
	for _, w := range words {
		m[w] = w
	}
	return m
}()

// replyScanner types reply members on a workload.Scanner. Its methods
// report false where the body needs encoding/json instead.
type replyScanner struct{ workload.Scanner }

// value decodes the value at the cursor into dst, a pointer to a field
// of a reply type.
func (s *replyScanner) value(dst any) bool {
	switch v := dst.(type) {
	case *AnalyzeResponse:
		return s.object(analyzeKeys, &v.Name, &v.Model, &v.Analyzer, &v.Result, &v.WallNS, &v.Cached, &v.Fingerprint)
	case *ResultJSON:
		return s.object(resultKeys, &v.Verdict, &v.Iterations, &v.Revisions, &v.MaxLevel, &v.FailureInterval,
			&v.Bound, &v.BoundKind)
	case *ProposeResponse:
		return s.object(proposeKeys, &v.Admitted, &v.Result, &v.Utilization, &v.Committed, &v.Pending,
			&v.Escalated, &v.Path)
	case *SessionResponse:
		return s.object(sessionKeys, &v.ID, &v.Model, &v.Analyzer, &v.Committed, &v.Pending, &v.Utilization)
	case *CommitResponse:
		return s.object(commitKeys, &v.Moved, &v.Committed, &v.Utilization)
	case *PartitionResponse:
		pl := &v.Placement
		return s.object(partitionKeys, &v.Name, &v.Model, &v.Analyzer, &pl.Feasible, &pl.Heuristic,
			&pl.Assignment, &pl.Processors, &pl.Attempts, &pl.Counterexample, &pl.Stats, &v.WallNS)
	case *partition.ProcessorReport:
		return s.object(reportKeys, &v.Index, &v.Name, &v.Speed, &v.Tasks, &v.Utilization, &v.UtilizationExact,
			&v.Verdict, &v.Iterations, &v.WallNS)
	case *partition.Attempt:
		return s.object(attemptKeys, &v.Heuristic, &v.Placed, &v.FailedTask, &v.FailedTaskName, &v.Rejections)
	case **partition.Attempt:
		*v = new(partition.Attempt)
		return s.value(*v)
	case *partition.Rejection:
		return s.object(rejectionKeys, &v.Processor, &v.Reason)
	case *partition.Stats:
		return s.object(statsKeys, &v.BinChecks, &v.CacheHits, &v.GateRejections, &v.Promotions)
	case *[]int:
		return slice(s, v)
	case *[]partition.ProcessorReport:
		return slice(s, v)
	case *[]partition.Attempt:
		return slice(s, v)
	case *[]partition.Rejection:
		return slice(s, v)
	case *string:
		return s.str(v)
	case *partition.Heuristic:
		return s.str((*string)(v))
	case *bool:
		lit := s.Value()
		*v = string(lit) == "true"
		return *v || string(lit) == "false"
	case *int64:
		n, ok := s.Int()
		*v = n
		return ok
	case *int:
		n, ok := s.Int()
		*v = int(n)
		return ok && int64(*v) == n
	case *uint64:
		neg := s.Peek() == '-'
		n, ok := s.Int()
		*v = uint64(n)
		return ok && !neg // above MaxInt64 goes to encoding/json
	case *float64:
		f, err := strconv.ParseFloat(string(s.Value()), 64)
		*v = f
		return err == nil // a non-number fails to parse
	}
	panic("service: no reply walk for " + reflect.TypeOf(dst).String()) // a field type added without its case
}

// object walks the object at the cursor: the member named keys[f] goes to
// fields[f]. Unknown keys are skipped, and so are null values, which
// leave a field of the reset value zero as encoding/json does.
func (s *replyScanner) object(keys []string, fields ...any) bool {
	if s.Peek() != '{' {
		return false
	}
	var seen uint32
	for s.Member() {
		f := workload.MatchKey(s.Key(), keys)
		switch {
		case f < 0:
			s.Skip()
		case seen&(1<<f) != 0:
			return false
		default:
			seen |= 1 << f
			if s.Peek() == 'n' {
				s.Skip()
			} else if !s.value(fields[f]) {
				return false
			}
		}
	}
	return true
}

// slice decodes the array at the cursor into a slice of exactly its
// length; [] is empty and non-nil, and a null element stays zero, as
// encoding/json decodes them into a nil slice.
func slice[T any](s *replyScanner, dst *[]T) bool {
	if s.Peek() != '[' {
		return false
	}
	out, ok := elems[T](s, 0)
	*dst = out
	return ok
}

// elems types the elements of the array at the cursor, n elements before
// them typed by the calls that recursed into this one, as workload's
// request walk types task arrays: up to 32 into a buffer on this call's
// stack, the rest by a recursive call, and all of them into the one
// slice the last call allocates at the array's exact length.
func elems[T any](s *replyScanner, n int) ([]T, bool) {
	var buf [32]T
	for k := range buf {
		if !s.Elem() {
			out := make([]T, n+k)
			copy(out[n:], buf[:k])
			return out, true
		}
		if s.Peek() == 'n' {
			s.Skip()
		} else if !s.value(&buf[k]) {
			return nil, false
		}
	}
	out, ok := elems[T](s, n+len(buf))
	if ok {
		copy(out[n:], buf[:])
	}
	return out, ok
}

// str decodes a string, sharing the vocabulary's copy of a fixed word.
func (s *replyScanner) str(dst *string) bool {
	if s.Peek() != '"' {
		return false
	}
	q, esc := s.Str()
	if q == nil {
		return false // the check failed
	}
	if w, ok := vocabulary[string(q[1:len(q)-1])]; ok {
		*dst = w
	} else {
		*dst = workload.Unquote(q, esc)
	}
	return true
}
