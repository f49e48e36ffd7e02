package pipeline

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseSpecs holds the stage-list parser to three properties: parsing
// and building never panic, an accepted text is blank or one JSON value,
// and accepted specs re-encoded by json.Marshal build the same stages, so
// chain keys do not depend on how a client spelled its list. The seeds in
// testdata/fuzz/FuzzParseSpecs cover the default list, one list per stage
// kind, each kind of rejection, and data after the list.
func FuzzParseSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		specs, err := ParseSpecs(text)
		if err != nil {
			return
		}
		if strings.TrimSpace(text) != "" && !json.Valid([]byte(text)) {
			t.Fatalf("accepted a text that is not JSON: %q", text)
		}
		stages, err := BuildStages(specs)
		b, merr := json.Marshal(specs)
		if merr != nil {
			t.Fatalf("re-encoding %+v: %v", specs, merr)
		}
		again, perr := ParseSpecs(string(b))
		if perr != nil {
			t.Fatalf("re-encoded specs %s do not parse: %v", b, perr)
		}
		stagesAgain, errAgain := BuildStages(again)
		if (err == nil) != (errAgain == nil) {
			t.Fatalf("build of %q: %v, of its re-encoding %s: %v", text, err, b, errAgain)
		}
		if len(stages) != len(stagesAgain) {
			t.Fatalf("%q builds %d stages, its re-encoding %d", text, len(stages), len(stagesAgain))
		}
		for i := range stages {
			if stages[i].Name() != stagesAgain[i].Name() || stages[i].Digest() != stagesAgain[i].Digest() {
				t.Fatalf("stage %d of %q: %s %s, re-encoded: %s %s", i, text,
					stages[i].Name(), stages[i].Digest(), stagesAgain[i].Name(), stagesAgain[i].Digest())
			}
		}
	})
}
