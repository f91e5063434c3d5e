//go:build race

package service

// raceEnabled reports a race-detector build. There json.Valid allocates
// (encoding/json keeps its scanner in a sync.Pool, and race builds drop a
// random share of pooled values), so the allocation bounds of the decode
// paths it starts only hold in normal builds.
const raceEnabled = true
