// Upload decoding: the one body path of /abstract, /pipeline and the
// router. A body is read once per node, capped at maxBodyBytes, into a
// buffer that grows as bytes arrive and ends at its Content-Length; a
// router that serves a body itself hands its handler the buffer it read,
// with the log it decoded from it, so a node decodes each upload once. A
// raw body is the log itself. A JSON envelope is scanned for its one
// top-level "log" string. The first time a node sees that string, it is
// validated and unescaped exactly as encoding/json does, a word at a time,
// while the decoded bytes stream into one SHA-256; the node's log memo
// then keeps that digest and length under the length of the string's
// escaped bytes and a keyed GHASH tag of them, so the same string sent
// again costs one tag of its escaped bytes and is neither unescaped nor
// scanned for its closing quote. The rest of the envelope, with the log
// blanked to "", goes through encoding/json. Any body the scanner does not
// take goes whole through encoding/json, so requests and error texts are
// those of json.Unmarshal. The digest of the decoded text keys the wire
// memo and places the upload on the ring; the decoded text itself is
// materialised only when the log must be parsed.
package service

import (
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxBodyBytes caps an upload's body (64 MiB).
const maxBodyBytes = 64 << 20

// bodyStallTimeout is how long a body read waits for the client's next
// bytes; a variable so that a test can lower it.
var bodyStallTimeout = 30 * time.Second

// readBody reads a request body, capped at maxBodyBytes; a body the router
// already read (withBody) comes back as it is. The server has no
// ReadTimeout, as /stream bodies are unbounded, so every read here renews a
// read deadline instead: a client that stops sending for bodyStallTimeout
// fails the read rather than hold its connection for ever. A writer that
// cannot set deadlines (http.ErrNotSupported) reads without one.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if up, ok := r.Context().Value(bodyKey{}).(*routedBody); ok {
		return up.body, nil
	}
	rc := http.NewResponseController(w)
	body, err := readCapped(stallReader{r.Body, rc}, r.ContentLength, maxBodyBytes)
	if err == nil {
		// net/http clears the deadline at the EOF of its own body but not
		// of a body put in its place, and a deadline left behind would
		// cancel the request. After an error it stays, so that net/http's
		// drain of the unread body cannot stall.
		rc.SetReadDeadline(time.Time{})
	}
	return body, err
}

// routedBody is an upload the router read and decoded to place it on the
// ring: the body, its log, and for an envelope the rest of the body as
// decodeEnvelope decoded it.
type routedBody struct {
	body []byte
	text *logText
	rest []byte // nil for a raw body
}

// bodyKey is the request-context key of a routedBody.
type bodyKey struct{}

// withBody returns r carrying an upload the router decoded, which readBody
// and readUpload then return instead of reading r.Body.
func withBody(r *http.Request, up *routedBody) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), bodyKey{}, up))
}

// readUpload reads an /abstract or /pipeline body and returns its log. A
// raw body is the log itself; an envelope is decoded into env, whose "log"
// field is log, as decodeEnvelope does. An upload the router decoded comes
// with its log, and only the rest of its envelope is decoded here.
func (s *Service) readUpload(w http.ResponseWriter, r *http.Request, env any, log *string) (*logText, error) {
	if up, ok := r.Context().Value(bodyKey{}).(*routedBody); ok {
		if up.rest != nil {
			if err := json.Unmarshal(up.rest, env); err != nil {
				return nil, fmt.Errorf("decoding JSON envelope: %w", err)
			}
			*log = ""
		}
		return up.text, nil
	}
	body, err := readBody(w, r)
	if err != nil {
		return nil, err
	}
	if !isEnvelope(r) {
		return plainText(body), nil
	}
	text, _, err := s.decodeEnvelope(body, env, log)
	return text, err
}

// stallReader renews the connection's read deadline before every read.
type stallReader struct {
	r  io.Reader
	rc *http.ResponseController
}

func (s stallReader) Read(p []byte) (int, error) {
	s.rc.SetReadDeadline(time.Now().Add(bodyStallTimeout))
	return s.r.Read(p)
}

// readCapped reads rd to EOF, failing once more than limit bytes arrive.
// declared is the length the sender announced, negative when unknown.
//
// The buffer only grows as bytes arrive, doubling, so a client that
// announces a long body and then stalls holds no more than about twice
// what it sent. Growth stops one byte past the declared length, so a body
// of that length ends in a buffer one byte longer than itself, the byte
// that lets it read its EOF without growing again. Each buffer it outgrows
// goes back to a pool for the next body, so a body leaves the garbage
// collector the one buffer it is returned in, not the whole doubling chain.
func readCapped(rd io.Reader, declared, limit int64) ([]byte, error) {
	end := limit + 1
	if declared >= 0 && declared < limit {
		end = declared + 1
	}
	buf := bodyBuf(min(end, bytes.MinRead))
	lr := io.LimitReader(rd, limit+1)
	for {
		if len(buf) == cap(buf) {
			size := 2 * int64(cap(buf))
			if int64(cap(buf)) < end {
				size = min(size, end)
			}
			next := append(bodyBuf(size), buf...)
			recycleBodyBuf(buf)
			buf = next
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			recycleBodyBuf(buf)
			return nil, fmt.Errorf("body exceeds %d bytes", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			recycleBodyBuf(buf)
			return nil, fmt.Errorf("reading body: %w", err)
		}
	}
}

// bodyBufs pools the buffers of readCapped's doubling chain by size: pool k
// holds buffers of bytes.MinRead<<k bytes, from 512 B to the 64 MiB body
// cap.
var bodyBufs [18]sync.Pool

// bodyBuf returns an empty buffer of capacity size, from its pool when
// size is a size of the doubling chain.
func bodyBuf(size int64) []byte {
	if k := bodyBufClass(size); k >= 0 {
		if b, ok := bodyBufs[k].Get().(*[]byte); ok {
			return (*b)[:0]
		}
	}
	return make([]byte, 0, size)
}

// recycleBodyBuf returns a buffer no one references any more to its pool.
func recycleBodyBuf(b []byte) {
	if k := bodyBufClass(int64(cap(b))); k >= 0 {
		bodyBufs[k].Put(&b)
	}
}

// bodyBufClass returns k when size is bytes.MinRead<<k, else -1.
func bodyBufClass(size int64) int {
	if size < bytes.MinRead || size&(size-1) != 0 {
		return -1
	}
	if k := bits.Len64(uint64(size/bytes.MinRead)) - 1; k < len(bodyBufs) {
		return k
	}
	return -1
}

// isEnvelope reports whether a request's body is a JSON envelope rather
// than a raw log.
func isEnvelope(r *http.Request) bool {
	return strings.HasPrefix(r.Header.Get("Content-Type"), "application/json")
}

// logText is an uploaded log as it arrived: a raw body, or the escaped
// contents of an envelope's "log" string. The SHA-256 and length of an
// escaped text are known from the scan; the text itself is produced by
// bytes, only when the log must be parsed.
type logText struct {
	src     []byte // the text, or JSON string contents when escaped
	escaped bool
	n       int // length of the decoded text
	sum     [sha256.Size]byte
	summed  bool // sum is set
	// decoded is set on an envelope's log that the scan unescaped in full,
	// one its node's log memo did not know.
	decoded bool
}

// plainText is a logText whose bytes are the text itself.
func plainText(b []byte) *logText {
	return &logText{src: b, n: len(b)}
}

// digest returns the SHA-256 of the decoded text. A plain text is hashed
// here, on first use: openLog asks on every /abstract and /pipeline
// request, for the wire-memo key, and the router asks for the ring slot.
func (t *logText) digest() [sha256.Size]byte {
	if !t.summed {
		t.sum, t.summed = sha256.Sum256(t.src), true
	}
	return t.sum
}

// bytes returns the decoded text: src itself when it is not escaped, else
// one buffer of exactly the decoded length.
func (t *logText) bytes() []byte {
	if !t.escaped {
		return t.src
	}
	out, _, _ := unquote(make([]byte, 0, t.n), t.src, 0)
	return out
}

// xmlish reports whether the text's first non-space rune is '<', the sniff
// that picks XES for an upload without a format.
func (t *logText) xmlish() bool {
	if !t.escaped {
		return bytes.HasPrefix(bytes.TrimLeftFunc(t.src, unicode.IsSpace), []byte("<"))
	}
	// unquote emits whole runes, so every chunk starts on a rune boundary.
	var buf [64]byte
	for i := 0; i < len(t.src); {
		var chunk []byte
		chunk, i, _ = unquote(buf[:0], t.src, i)
		if rest := bytes.TrimLeftFunc(chunk, unicode.IsSpace); len(rest) > 0 {
			return rest[0] == '<'
		}
	}
	return false
}

// uploadFormat resolves an upload's wire format: the declared one, or XES
// for a log whose first non-space rune is '<' and CSV otherwise.
func uploadFormat(declared string, text *logText) (string, error) {
	format := strings.ToLower(declared)
	if format == "" {
		if text.xmlish() {
			return "xes", nil
		}
		return "csv", nil
	}
	if format != "xes" && format != "csv" {
		return "", fmt.Errorf("unknown format %q (want xes or csv)", declared)
	}
	return format, nil
}

// decodeEnvelope decodes a JSON envelope body into env, whose "log" field
// is log, and returns the log as a logText; the field itself is left
// empty. rest is what went through encoding/json: the body with the log
// blanked to "", or the whole body when the scanner did not take it.
// Requests and errors are those of json.Unmarshal(body, env). logs is the
// node's log memo.
func decodeEnvelope(body []byte, env any, log *string, logs *logMemo) (text *logText, rest []byte, err error) {
	text, start, end := scanEnvelope(body, logs)
	rest = body
	if text != nil {
		rest = make([]byte, 0, len(body)-(end-start))
		rest = append(append(rest, body[:start]...), body[end:]...)
	}
	if err := json.Unmarshal(rest, env); err != nil {
		return nil, nil, fmt.Errorf("decoding JSON envelope: %w", err)
	}
	if text == nil {
		text = plainText([]byte(*log))
		*log = ""
	}
	return text, rest, nil
}

// decodeEnvelope decodes an envelope through the node's log memo and
// counts a log string it unescaped in full.
func (s *Service) decodeEnvelope(body []byte, env any, log *string) (*logText, []byte, error) {
	text, rest, err := decodeEnvelope(body, env, log, s.logs)
	if err == nil && text.decoded {
		s.uploadsDecoded.Add(1)
	}
	return text, rest, err
}

// logKey is the envelope member scanEnvelope looks for.
var logKey = []byte("log")

// scanEnvelope finds a JSON object's top-level "log" member and finds its
// string value in the log memo or, in one pass over its bytes, validates
// and hashes it. It returns the log and the bounds [start, end) of the string's contents in
// body. text is nil for a body the scanner does not take, which must then
// be decoded whole by encoding/json: a body that is not an object, a "log"
// key that is escaped, differs in case or repeats (encoding/json matches
// keys without regard to case and lets the last one win), a value that is
// not a string, a string encoding/json would reject, or no "log" at all.
//
// Only strings and nesting are tracked elsewhere: encoding/json validates
// the rest when it decodes the body with the log blanked to "", and
// blanking a valid string changes neither the body's validity nor its
// first error.
func scanEnvelope(body []byte, logs *logMemo) (text *logText, start, end int) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, 0, 0
	}
	i = skipSpace(body, i+1)
	for {
		if i == len(body) || body[i] != '"' {
			return nil, 0, 0
		}
		keyEnd := skipString(body, i)
		if keyEnd < 0 {
			return nil, 0, 0
		}
		key := body[i+1 : keyEnd]
		i = skipSpace(body, keyEnd+1)
		if i == len(body) || body[i] != ':' {
			return nil, 0, 0
		}
		i = skipSpace(body, i+1)
		switch {
		case bytes.Equal(key, logKey):
			if text != nil || i == len(body) || body[i] != '"' {
				return nil, 0, 0
			}
			if text, end = hashString(body, i+1, logs); text == nil {
				return nil, 0, 0
			}
			start, i = i+1, end+1
		case bytes.IndexByte(key, '\\') >= 0 || bytes.EqualFold(key, logKey):
			return nil, 0, 0
		default:
			if i = skipValue(body, i); i < 0 {
				return nil, 0, 0
			}
		}
		i = skipSpace(body, i)
		if i == len(body) || body[i] != ',' {
			break
		}
		i = skipSpace(body, i+1)
	}
	if text == nil || i == len(body) || body[i] != '}' {
		return nil, 0, 0
	}
	return text, start, end
}

// logSum is what a log memo keeps of an envelope log string that
// validated: the SHA-256 and length of its decoded text, and the length of
// its escaped bytes, the length its key holds.
type logSum struct {
	sum     [sha256.Size]byte
	n       int
	escaped int
}

// logID keys a log memo's entry: the length of a log string's escaped
// bytes and their keyed GHASH tag.
type logID struct {
	n   int
	tag [16]byte
}

// logMemo maps the escaped bytes of an envelope log string that validated
// to its logSum. A node keeps one, which its router and its handlers
// share.
//
// An entry's key is the length of the escaped bytes and a GHASH tag of
// them: GCM's tag of an empty plaintext at a fixed nonce with the bytes as
// additional data, under an AES key each memo draws from crypto/rand.
// GHASH is a keyed almost-universal hash, so two distinct strings of l
// 16-byte blocks share a tag with probability at most (l+1)/2^128, and
// neither the key nor a tag leaves the process. No digest comes from
// another node either: each tags the bytes it received.
//
// A lookup needs no scan for the closing quote. In the escaped bytes of a
// string encoding/json accepts, every '"' follows an odd run of
// backslashes, so of the lengths the memo holds only the smallest L at
// which body[i+L] is a '"' after an even run can be the length of a held
// string that body[i:] starts with, and one tag of body[i:i+L] and one
// lookup decide. A hit is thus a string encoding/json accepts, closing
// where it closed before. Where cipher.NewGCM refuses, as under
// GODEBUG=fips140=only, the memo holds nothing: every envelope is then a
// first sight, unescaped in full, which is slower but decodes the same.
type logMemo struct {
	gcm cipher.AEAD // nil in a memo that holds nothing
	mu  sync.Mutex
	lru *lru[logID, logSum]
	// count maps each escaped length the memo holds to its number of
	// entries, and lens lists those lengths in ascending order. lens is
	// replaced, never written in place, so a lookup walks it unlocked.
	count map[int]int
	lens  []int
}

// logNonce is the fixed nonce of a log memo's tags.
var logNonce [12]byte

// newLogMemo returns a log memo of up to capacity strings.
func newLogMemo(capacity int) *logMemo {
	m := &logMemo{count: make(map[int]int)}
	m.lru = newLRU[logID](capacity, m.evicted)
	var key [16]byte
	if _, err := rand.Read(key[:]); err == nil {
		block, _ := aes.NewCipher(key[:]) // a 16-byte key is always valid
		m.gcm, _ = cipher.NewGCM(block)   // refused under fips140=only
	}
	return m
}

// tag returns the memo's GHASH tag of s.
func (m *logMemo) tag(s []byte) (t [16]byte) {
	m.gcm.Seal(t[:0], logNonce[:], nil, s)
	return t
}

// get returns the entry of the string whose contents start at body[i], and
// the position of its closing quote, when the memo holds that string.
func (m *logMemo) get(body []byte, i int) (s logSum, end int, ok bool) {
	if m.gcm == nil {
		return logSum{}, 0, false
	}
	m.mu.Lock()
	lens := m.lens
	m.mu.Unlock()
	for _, n := range lens {
		end = i + n
		if end >= len(body) {
			break
		}
		if body[end] == '"' && closes(body, i, end) {
			id := logID{n, m.tag(body[i:end])}
			m.mu.Lock()
			s, ok = m.lru.get(id)
			m.mu.Unlock()
			return s, end, ok
		}
	}
	return logSum{}, 0, false
}

// put enters a string that validated, whose escaped bytes are src.
func (m *logMemo) put(src []byte, s logSum) {
	if m.gcm == nil {
		return
	}
	id := logID{len(src), m.tag(src)}
	s.escaped = id.n
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.lru.peek(id); !ok {
		if m.count[id.n]++; m.count[id.n] == 1 {
			k, _ := slices.BinarySearch(m.lens, id.n)
			m.lens = slices.Concat(m.lens[:k], []int{id.n}, m.lens[k:])
		}
	}
	m.lru.put(id, s)
}

// evicted drops an entry that put evicted from the length counts.
func (m *logMemo) evicted(s logSum) {
	if m.count[s.escaped]--; m.count[s.escaped] == 0 {
		delete(m.count, s.escaped)
		k, _ := slices.BinarySearch(m.lens, s.escaped)
		m.lens = slices.Concat(m.lens[:k], m.lens[k+1:])
	}
}

// hashString validates the JSON string whose contents start at body[i]. It
// returns the string's text and the position of its closing quote, or nil
// for a string encoding/json would reject. A string the memo holds is
// neither unescaped nor scanned for its closing quote; any other is
// decoded in full and, when it validates, enters the memo.
func hashString(body []byte, i int, logs *logMemo) (*logText, int) {
	if s, end, ok := logs.get(body, i); ok {
		return &logText{src: body[i:end], escaped: true, n: s.n, sum: s.sum, summed: true}, end
	}
	text, end := decodeString(body, i)
	if text != nil {
		text.decoded = true
		logs.put(text.src, logSum{sum: text.sum, n: text.n})
	}
	return text, end
}

// closes reports whether the '"' at b[q] would close a string whose
// contents start at b[start]: no odd run of backslashes escapes it.
func closes(b []byte, start, q int) bool {
	j := q
	for j > start && b[j-1] == '\\' {
		j--
	}
	return (q-j)%2 == 0
}

// hashChunk is how many decoded bytes decodeString hands SHA-256 at a
// time.
const hashChunk = 16 << 10

// decodeString validates the JSON string whose contents start at body[i],
// streaming its decoded text into SHA-256. It returns the text and the
// position of the closing quote, or nil for a string encoding/json would
// reject.
func decodeString(body []byte, i int) (*logText, int) {
	start := i
	h := sha256.New()
	buf := make([]byte, 0, hashChunk)
	n := 0
	for {
		var ok bool
		buf, i, ok = unquote(buf[:0], body, i)
		if !ok || i == len(body) {
			return nil, 0
		}
		h.Write(buf)
		n += len(buf)
		if body[i] == '"' {
			break
		}
	}
	text := &logText{src: body[start:i], escaped: true, n: n, summed: true}
	h.Sum(text.sum[:0])
	return text, i
}

// unquote decodes JSON string contents from src[i] onto dst as
// encoding/json does: escapes are resolved, a surrogate pair becomes its
// rune, and a lone surrogate and each byte of invalid UTF-8 become U+FFFD.
// It stops at a closing quote, at the end of src, or before a piece that
// would not fit in dst's capacity, and returns the position it stopped
// at; pieces are whole runes. ok is false at a control character or an
// escape encoding/json rejects. Bytes of dst past its returned length may
// be overwritten.
//
//gecco:hotpath
func unquote(dst, src []byte, i int) (_ []byte, next int, ok bool) {
	var tmp [utf8.UTFMax]byte
	for i < len(src) {
		// A word at a time while src and dst both have one: store all
		// eight bytes, keep those before the first that is not verbatim.
		if len(src)-i >= 8 && cap(dst)-len(dst) >= 8 {
			n := len(dst)
			w := binary.LittleEndian.Uint64(src[i:])
			binary.LittleEndian.PutUint64(dst[n:n+8], w)
			k := verbatimLen(w)
			dst, i = dst[:n+k], i+k
			if k == 8 {
				continue
			}
		} else if verbatim[src[i]] {
			j := i + 1
			for j < len(src) && verbatim[src[j]] {
				j++
			}
			j = min(j, i+cap(dst)-len(dst))
			if j == i {
				break
			}
			dst = append(dst, src[i:j]...)
			i = j
			continue
		}
		c := src[i]
		var piece []byte
		size := 1
		switch {
		case c == '"':
			return dst, i, true
		case c == '\\':
			// The usual escapes stand for one ASCII byte.
			if len(src)-i >= 2 && len(dst) < cap(dst) {
				if b := escapedByte[src[i+1]]; b != 0 {
					dst = append(dst, b)
					i += 2
					continue
				}
				if b, ok := hexASCII(src[i:]); ok {
					dst = append(dst, b)
					i += 6
					continue
				}
			}
			var r rune
			if r, size = escape(src, i); size == 0 {
				return dst, i, false
			}
			piece = utf8.AppendRune(tmp[:0], r)
		case c < ' ':
			return dst, i, false
		default:
			var r rune
			r, size = utf8.DecodeRune(src[i:])
			piece = src[i : i+size]
			if r == utf8.RuneError && size == 1 {
				piece = utf8.AppendRune(tmp[:0], r)
			}
		}
		if len(piece) > cap(dst)-len(dst) {
			break
		}
		dst = append(dst, piece...)
		i += size
	}
	return dst, i, true
}

// Byte lanes of a 64-bit word: the lowest and the highest bit of each.
const (
	laneLow  = 0x0101010101010101
	laneHigh = 0x8080808080808080
)

// verbatimLen returns how many of w's eight bytes, the first in the low
// bits, come before the first that is not verbatim: '"', '\\', a control
// character, or a byte of 0x80 and above. A lane's subtraction borrows
// from the next lane only when the lane itself matched, so the lowest
// lane flagged is always a true match.
func verbatimLen(w uint64) int {
	quote, bslash := w^(laneLow*'"'), w^(laneLow*'\\')
	stop := (quote-laneLow)&^quote | (bslash-laneLow)&^bslash | (w - laneLow*' ') | w
	return bits.TrailingZeros64(stop&laneHigh) / 8
}

// hexASCII decodes a \u00XX escape below 0x80 at the start of s.
func hexASCII(s []byte) (byte, bool) {
	if len(s) < 6 || s[1] != 'u' || s[2] != '0' || s[3] != '0' {
		return 0, false
	}
	hi, lo := hexDigit[s[4]], hexDigit[s[5]]
	return byte(hi)<<4 | byte(lo), uint8(hi) < 8 && lo >= 0
}

// escapedByte maps the byte after a backslash to the byte its two-byte
// escape stands for, and any other byte to 0.
var escapedByte = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// verbatim marks the bytes a JSON string carries as themselves: printable
// ASCII other than '"' and '\\'.
var verbatim = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape decodes the escape sequence starting at the backslash src[i],
// returning its rune and length, or length 0 for a sequence encoding/json
// rejects.
func escape(src []byte, i int) (rune, int) {
	if i+1 == len(src) {
		return 0, 0
	}
	if b := escapedByte[src[i+1]]; b != 0 {
		return rune(b), 2
	}
	r := hex4(src[i:])
	if r < 0 {
		return 0, 0
	}
	if utf16.IsSurrogate(r) {
		if pair := utf16.DecodeRune(r, hex4(src[i+6:])); pair != unicode.ReplacementChar {
			return pair, 12
		}
		return unicode.ReplacementChar, 6
	}
	return r, 6
}

// hex4 decodes a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	a, b, c, d := hexDigit[s[2]], hexDigit[s[3]], hexDigit[s[4]], hexDigit[s[5]]
	if a|b|c|d < 0 {
		return -1
	}
	return rune(a)<<12 | rune(b)<<8 | rune(c)<<4 | rune(d)
}

// hexDigit maps a hexadecimal digit to its value and any other byte to -1.
var hexDigit = func() (t [256]int8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = int8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = int8(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = int8(c - 'A' + 10)
		default:
			t[c] = -1
		}
	}
	return t
}()

// skipSpace returns the position of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the position of the closing quote of the string
// opening at b[i], or -1 when it is unterminated.
func skipString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}

// skipValue returns the position just past the value starting at b[i], or
// -1 when there is none.
func skipValue(b []byte, i int) int {
	start, depth := i, 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			if i = skipString(b, i); i < 0 {
				return -1
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return scalarEnd(start, i)
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ':', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return scalarEnd(start, i)
			}
		}
	}
	return -1
}

// scalarEnd is skipValue's result for a scalar ending at i: a value must
// have at least one byte.
func scalarEnd(start, i int) int {
	if i == start {
		return -1
	}
	return i
}
