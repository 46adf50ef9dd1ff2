// Package fix drifts from its pinned schema registry.
package fix

import "encoding/json"

// DocSchemaVersion is pinned at 2 in schemas.json.
const DocSchemaVersion = 2

// Doc grew a field since the registry fingerprinted it.
type Doc struct {
	SchemaVersion int    `json:"schema_version"`
	Name          string `json:"name"`
	Grew          bool   `json:"grew"`
}

// LogSchemaVersion is pinned at 3 in schemas.json.
const LogSchemaVersion = 3

// Log matches its fingerprint, but its reader keeps reading an old layout.
type Log struct {
	SchemaVersion int      `json:"schema_version"`
	Lines         []string `json:"lines"`
}

// ReadLog upgrades v2 documents in place and never compares against
// LogSchemaVersion, so it accepts every version.
func ReadLog(data []byte) (Log, error) {
	var l Log
	if err := json.Unmarshal(data, &l); err != nil {
		return l, err
	}
	if l.SchemaVersion == 2 {
		l.SchemaVersion = 3
	}
	return l, nil
}
