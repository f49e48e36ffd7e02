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

import (
	"crypto/sha256"
	"sync"
)

// wireMemoCapacity bounds the memo. Entries are a wire identity and a hex
// digest (~150 bytes), so this covers any realistic hot set in about
// 150 KiB.
const wireMemoCapacity = 1024

type wireMemo struct {
	mu  sync.Mutex
	lru *lru[wireID, string]
}

// wireID is an upload's wire identity: its format and the SHA-256 of its
// log text (decoded from the envelope when it came in one). The same text
// parses differently as XES and CSV, so the two must not share an entry.
type wireID struct {
	format string
	sum    [sha256.Size]byte
}

func newWireMemo() *wireMemo {
	return &wireMemo{lru: newLRU[wireID, string](wireMemoCapacity, nil)}
}

// wireKey is the reference for the wireID the upload path streams out of a
// body.
func wireKey(format, text string) wireID {
	return wireID{format: format, sum: sha256.Sum256([]byte(text))}
}

func (m *wireMemo) get(id wireID) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.get(id)
}

func (m *wireMemo) put(id wireID, digest string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lru.put(id, digest)
}
