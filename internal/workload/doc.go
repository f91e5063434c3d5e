// Package workload defines the polymorphic workload type shared by the
// analysis engine, the edfd wire API and the CLI tools: one schema that
// carries a sporadic task set (the paper's base model), a Gresser
// event-stream task set (Section 3.4), or a partitioned multiprocessor
// workload (sporadic tasks with optional affinities, placed onto a set of
// processors). A "model" discriminator selects among them and defaults to
// sporadic, so pre-existing payloads keep parsing unchanged.
//
// # Decoding
//
// Every request that carries a workload decodes through DecodeRequest, a
// walker that reads the body once, and its walk is the body's check: the
// Scanner checks every byte it consumes as json.Valid would, and no other
// pass runs before or after it. That check accepts exactly what
// json.Valid accepts: encoding/json's nesting limit of 10000 arrays and
// objects counted from the top of the body, its escapes, its rule that a
// string holds no control byte, its number grammar, literals and
// whitespace, and, like json.Valid, no UTF-8 check (FuzzValid compares
// the two). A body that fails it gets encoding/json's *json.SyntaxError.
// Each integer literal is typed in the scan that checks it.
//
// The walk types each "processors" and "tasks" array as it meets it,
// under the model named so far (the typed client writes "model" first,
// and sporadic bodies omit it), into a buffer on its stack that it copies
// out at the array's exact length, so it needs no element count; a
// longer array recurses into a further buffer, and is still one
// allocation. After the
// walk, the last "processors" and "tasks" spans are typed again, by the
// same functions on their already checked bytes, only where the walk's
// typing does not stand for the final "model": the last span was met
// under another model or none, or its typing declined or failed. A
// span whose typing fails during the walk is checked to its end, and
// the walk goes on. Because encoding/json checks a whole body before it
// types any of it, a typing error (a non-string "model", a field
// json.Unmarshal rejects, a task field of the wrong kind) is answered
// only after the whole body passes the check; otherwise the syntax error
// wins. The decoded value equals what encoding/json's struct decoding
// gives for the same bytes, which FuzzWorkloadJSON (engine) and
// FuzzRequestJSON (service) check differentially against the nested
// decoders the walker replaced.
// The rules it reproduces:
//
//   - Keys match case-insensitively under bytes.EqualFold, the
//     equivalence of encoding/json's field matching ("TASKS" and
//     "ſelf_ſuſpenſion" match). A key with an escape is unquoted through
//     json.Unmarshal first. Keys the model does not read are skipped,
//     whatever their type: "stream" on a sporadic task, "period" on an
//     event task, "processors" outside the partitioned model.
//   - "tasks" and "processors" take their last occurrence, null
//     included; the typing of an earlier occurrence, and its error, are
//     discarded. "model" takes its last non-null string.
//   - A request's own keys (name, analyzer, options, heuristics, workers:
//     see Field) go in document order into one value, which is
//     encoding/json's in-place merge of repeated keys. The walk types an
//     integer field (workers) itself; the others, and an integer field
//     it declines, go to json.Unmarshal.
//   - Sporadic and partitioned elements are typed by hand: the seven
//     model.Task keys, plus "affinity" for partitioned tasks, and so are
//     the processors' "name" and "speed". An int64 or int field takes a
//     JSON integer literal through strconv.ParseInt(lit, 10, 64), so
//     1e2, 1.0 and overflow are type errors. null leaves a scalar alone
//     and sets a slice to nil; a null element is a zero task, a zero
//     processor or a 0 in an affinity; [] is an empty, non-nil slice. A
//     string with an escape or invalid UTF-8 goes through json.Unmarshal.
//   - What the typing walk declines goes to json.Unmarshal on its own
//     byte span, which answers encoding/json's error: a processor array
//     with a value of the wrong kind or a number its field cannot hold,
//     an affinity that is not null or an array of integers, and every
//     occurrence of a repeated "affinity", decoded from nil, because
//     encoding/json merges them in place (a null element keeps what the
//     slice held there, even past its length within its capacity). Event
//     task arrays go to json.Unmarshal on their own byte spans.
//   - A body of null decodes as an empty object; any other non-object
//     body is a type error.
//
// A proposal Task is an event task when its object has a "stream" key,
// even "stream": null, and is then decoded by json.Unmarshal; any other
// object takes the sporadic walk, which notes a "stream" key as it passes
// it. Only a task whose typing fails before the end of its object is
// walked again, to look for one.
//
// One scanner, Scanner, serves requests and replies: DecodeRequest walks
// request bodies on it, and package service walks proposals and the
// analyze, propose, partition, session and commit replies on it. Every
// walk on it is also the check of what it consumes, and Scanner.End
// tells a walk that took a whole valid body from one that did not. The
// reply walks take the bodies the daemons write and skip unknown keys,
// and hand anything else to encoding/json whole, into a method-free copy
// of the reset value: a body that fails the check, a repeated key
// (encoding/json merges the occurrences), a value of the wrong kind, a
// number its field cannot hold, or a body that is not an object. Their
// result therefore equals json.Unmarshal's by construction on those
// bodies, and FuzzReplyJSON (service) checks the walked ones. MatchKey is
// the key rule both sides share.
//
// # Encoding
//
// Every hand-written MarshalJSON of the wire types (Workload and Task
// here, the request and reply types of package service) is one append
// pass built from the appenders in encode.go, and writes exactly the
// bytes json.Marshal writes for the same value. Callers that invoke
// MarshalJSON directly (service.EncodeJSON, the typed client, both
// daemons' reply writer, the session journal) therefore skip
// encoding/json's reflection and its compaction of a MarshalJSON's
// output; json.Marshal of a value takes the same path and gets the same
// bytes. The rules it reproduces:
//
//   - Members appear in struct-tag order; omitempty drops empty strings,
//     zero numbers, false and empty slices, omitzero drops a zero options
//     object, and a nil slice without omitempty is null.
//   - A string of printable ASCII other than ", \, <, > and & is copied
//     between quotes; any other string goes through json.Marshal, so
//     the escaping of HTML characters, control bytes, invalid UTF-8
//     (as \ufffd) and U+2028/U+2029 stays encoding/json's.
//   - Integers are strconv's base-10 form. A float64 is the shortest
//     representation that round-trips, in 'f' format unless its
//     magnitude is below 1e-6 or at least 1e21, where it takes 'e' format
//     with a one-digit negative exponent shortened (1e-7, not 1e-07). A
//     NaN or infinity returns json.Marshal's *json.UnsupportedValueError,
//     never invalid JSON.
//   - Event task arrays, as in decoding, go to json.Marshal.
//
// TestWireEncodeMatchesReference and FuzzWireEncode (service) compare
// every hand-encoded type with the encoders it replaced, kept in the
// tests as the reference.
package workload
