package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// JSON renders the Spec as its canonical JSON object. Every field is
// emitted explicitly under a stable snake_case name, so stored specs
// stay readable as the defaults evolve, and FromJSON(s.JSON()) == s.
// (Exception: the instrumentation knobs that Normalize clears —
// Verify, Metrics and Spans — are omitted when false, so their
// introduction does not perturb Canonical() hashes and existing result
// stores stay valid.)
func (s Spec) JSON() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is a flat struct of marshal-safe fields.
		panic("spec: marshal failed: " + err.Error())
	}
	return data
}

// FromJSON parses a JSON object back into a Spec. Absent fields keep
// the Default values (so hand-written spec files may be sparse), and
// unknown fields are an error rather than silently ignored.
func FromJSON(data []byte) (Spec, error) {
	s := Default()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after the JSON object")
	}
	return s, nil
}
