// Wire-digest memo: the canonical LogDigest is format-independent (XES and
// CSV uploads of the same events collide, as they should), so it can only
// be computed from a *parsed* log — which makes parsing the price of every
// request, even one served entirely from the result cache. The memo closes
// that gap for the common case: it maps an upload's wire identity — its
// format and the SHA-256 of its log text, which the upload path computes
// while decoding the body — to the canonical digest learned the first time
// that text was parsed. A byte-identical re-upload then knows its digest
// immediately, so cache hits skip the parse — and with a warm tier, a
// spilled session can be re-opened from its .gidx without the server ever
// re-reading the XES.
package service

import "crypto/sha256"

// wireMemoCapacity bounds the memo, and the log memo too. A wire-memo
// entry is a wire identity and a hex digest (~150 bytes), a log-memo entry
// a tag, a SHA-256 and three lengths (~100 bytes), so each covers any
// realistic hot set in at most about 150 KiB.
const wireMemoCapacity = 1024

// wireMemo maps an upload's wire identity to its canonical log digest.
type wireMemo = memo[wireID, string]

// wireID is an upload's wire identity: its format and the SHA-256 of its
// log text (decoded from the envelope when it came in one). The same text
// parses differently as XES and CSV, so the two must not share an entry.
type wireID struct {
	format string
	sum    [sha256.Size]byte
}

func newWireMemo() *wireMemo {
	return newMemo[wireID, string](wireMemoCapacity, nil)
}

// wireKey is the reference for the wireID the upload path streams out of a
// body.
func wireKey(format, text string) wireID {
	return wireID{format: format, sum: sha256.Sum256([]byte(text))}
}
