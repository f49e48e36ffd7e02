package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
	"gecco/internal/procgen"
	"gecco/internal/shard"
	"gecco/internal/xes"
)

// envelopeCase is a body the envelope decoder is checked on; taken says
// whether the scanner's fast path takes it.
type envelopeCase struct {
	name, body string
	taken      bool
}

// envelopeCases are the bodies TestDecodeEnvelopeMatchesJSON checks and
// the seeds of FuzzDecodeEnvelope: each way a body can leave the scanner's
// fast path, each escape encoding/json resolves, and each error it
// reports.
func envelopeCases(t testing.TB) []envelopeCase {
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	small := xesText(t, procgen.RunningExample(3, 1))
	// Longer than hashChunk once decoded, with escapes and multi-byte runes
	// on every chunk boundary.
	long := strings.Repeat("é<\"\\\n😀 x", 3000)
	return []envelopeCase{
		{"procgen abstract envelope", marshal(AbstractRequest{Log: small, Constraints: "distinct(role) <= 1", Mode: "dfg"}), true},
		{"procgen pipeline envelope", marshal(PipelineHTTPRequest{Log: small, Stages: []pipeline.StageSpec{{Stage: "abstract"}, {Stage: "discover"}}, IncludeAbstracted: true}), true},
		{"log longer than a hash chunk", marshal(AbstractRequest{Log: long, Format: "csv"}), true},
		{"log ending in 200 escaped backslashes", `{"log":"end` + strings.Repeat(`\\`, 200) + `"}`, true},
		{"capitalised key", `{"Log":"<log/>","constraints":"c"}`, false},
		{"upper-case key", `{"LOG":"<log/>"}`, false},
		{"escaped key", `{"\u006cog":"<log/>","mode":"exh"}`, false},
		{"two log members", `{"log":"a","log":"b"}`, false},
		{"log then capitalised key", `{"log":"a","Log":"b"}`, false},
		{"log nested in a member", `{"stages":[{"stage":"abstract","log":"inner"}],"x":{"log":"deep"},"log":"top"}`, true},
		{"log nested only", `{"x":{"log":"deep"}}`, false},
		{"quoted log inside a value", `{"constraints":"a\"log\":\"x","log":"y"}`, true},
		{"null log", `{"log":null,"constraints":"c"}`, false},
		{"number log", `{"log":12}`, false},
		{"invalid escape", `{"log":"a\qb"}`, false},
		{"short unicode escape", `{"log":"\u12"}`, false},
		{"escaped single quote", `{"log":"\'"}`, false},
		{"raw tab", "{\"log\":\"a\tb\"}", false},
		{"raw newline", "{\"log\":\"a\nb\"}", false},
		{"raw nul", "{\"log\":\"a\x00b\"}", false},
		{"all simple escapes", `{"log":"\"\\\/\b\f\n\r\t\u0000\u00e9\u20AC é€"}`, true},
		{"surrogate pair", `{"log":"\ud83d\ude00 😀"}`, true},
		{"lone high surrogate", `{"log":"\ud800x"}`, true},
		{"lone low surrogate", `{"log":"\udc00"}`, true},
		{"high surrogate then non-surrogate escape", `{"log":"\ud800\u0041"}`, true},
		{"reversed surrogates", `{"log":"\ude00\ud83d"}`, true},
		{"high surrogate then bad escape", `{"log":"\ud800\uzzzz"}`, false},
		{"invalid utf-8", "{\"log\":\"a\xffb\xc3\"}", true},
		{"utf-8 encoded surrogate", "{\"log\":\"\xed\xa0\x80\"}", true},
		{"trailing data", `{"log":"x"} junk`, true},
		{"second value", `{"log":"x"}{}`, true},
		{"trailing comma", `{"log":"x",}`, false},
		{"type error in beamWidth", `{"log":"<log/>","beamWidth":"wide"}`, true},
		{"type error before the log", `{"beamWidth":true,"log":"<log/>","workers":1.5}`, true},
		{"constraintSets", `{"log":"<log/>","constraintSets":["distinct(role) <= 1","|g| <= 3"]}`, true},
		{"syntax error before the log", `{"mode":tru,"log":"x"}`, true},
		{"syntax error after the log", `{"log":"x","mode":}`, false},
		{"unterminated log", `{"log":"abc`, false},
		{"unclosed object", `{"log":"abc"`, false},
		{"empty object", `{}`, false},
		{"null body", `null`, false},
		{"array body", `[{"log":"x"}]`, false},
		{"empty body", ``, false},
		{"whitespace around", " \r\n{ \"log\" :\t\"<log/>\" , \"format\" : \"XES\" }\n", true},
		{"sniff past unicode space", `{"log":"\u00a0\u2028\n <log/>"}`, true},
		{"sniff past raw unicode space", "{\"log\":\" 　<log/>\"}", true},
		{"space-only log", `{"log":" \u0085 "}`, true},
		{"declared format wins", `{"format":"CSV","log":"<x"}`, true},
		{"unknown format", `{"format":"json","log":"x"}`, true},
		{"pipeline stages type error", `{"log":"x","stages":{"stage":"abstract"}}`, true},
	}
}

// xesText serialises a log as XES.
func xesText(t testing.TB, log *eventlog.Log) string {
	var b strings.Builder
	if err := xes.Write(&b, log); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// oracleFormat is the format sniff as it reads on the decoded log text.
func oracleFormat(declared, log string) string {
	format := strings.ToLower(declared)
	if format == "" {
		if strings.HasPrefix(strings.TrimSpace(log), "<") {
			return "xes"
		}
		return "csv"
	}
	return format
}

var testRing = shard.New([]string{"shard-0", "shard-1", "shard-2"}, 0)

// checkEnvelope decodes body with the upload path and with json.Unmarshal,
// into each envelope type, and fails unless both fail with the same text
// or both succeed with equal requests once the log is materialised — and
// the log's streamed digest is its wire key and its ring placement. Each
// type decodes body twice through a fresh log memo: the first decode
// unescapes the log string, the second finds it in the memo.
func checkEnvelope(t *testing.T, body []byte) {
	t.Helper()
	checkEnvelopeMemo(t, body, func() *logMemo { return newLogMemo(wireMemoCapacity) })
}

// checkEnvelopeMemo is checkEnvelope with each envelope type's log memo
// from logs.
func checkEnvelopeMemo(t *testing.T, body []byte, logs func() *logMemo) {
	t.Helper()
	checkDecode[AbstractRequest](t, body, logs(), func(e *AbstractRequest) (*string, string) { return &e.Log, e.Format })
	checkDecode[PipelineHTTPRequest](t, body, logs(), func(e *PipelineHTTPRequest) (*string, string) { return &e.Log, e.Format })
	checkDecode[routerEnvelope](t, body, logs(), func(e *routerEnvelope) (*string, string) { return &e.Log, "" })
}

// routerEnvelope is the envelope Router.routeByLog decodes: only the log it
// routes by.
type routerEnvelope struct {
	Log string `json:"log"`
}

// checkDecode decodes body into E twice through logs and holds each decode
// to json.Unmarshal; the second never unescapes the log again, unless logs
// is a memo that holds nothing, where it unescapes whatever the first did.
// The rest of the envelope must decode into E as the body did, as a
// handler decodes the rest a router hands it.
func checkDecode[E any](t *testing.T, body []byte, logs *logMemo, fields func(*E) (log *string, format string)) {
	t.Helper()
	var want E
	werr := json.Unmarshal(body, &want)
	wantLog, wantFormat := fields(&want)
	var first bool // the first decode unescaped the log string
	for pass := 1; pass <= 2; pass++ {
		var got E
		gotLog, _ := fields(&got)
		text, rest, err := decodeEnvelope(body, &got, gotLog, logs)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%T, decode %d: decodeEnvelope error %v, json.Unmarshal error %v", got, pass, err, werr)
		}
		if err != nil {
			if w := "decoding JSON envelope: " + werr.Error(); err.Error() != w {
				t.Fatalf("%T, decode %d: error %q, want %q", got, pass, err, w)
			}
			continue
		}
		if pass == 1 {
			first = text.decoded
		} else if again := first && logs.gcm == nil; text.decoded != again {
			t.Fatalf("%T: the second decode unescaped the log string: %v, want %v", got, text.decoded, again)
		}
		if *gotLog != "" {
			t.Fatalf("%T, decode %d: Log field holds %q; the log belongs to the logText", got, pass, *gotLog)
		}
		var again E
		againLog, _ := fields(&again)
		if err := json.Unmarshal(rest, &again); err != nil {
			t.Fatalf("%T, decode %d: the rest of the envelope does not decode: %v", got, pass, err)
		}
		if *againLog = ""; !reflect.DeepEqual(again, got) {
			t.Fatalf("%T, decode %d: the rest decoded\n%+v\nthe envelope\n%+v", got, pass, again, got)
		}
		decoded := text.bytes()
		if len(decoded) != text.n {
			t.Fatalf("%T, decode %d: decoded %d bytes, scan counted %d", got, pass, len(decoded), text.n)
		}
		*gotLog = string(decoded)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T, decode %d: decoded\n%+v\njson.Unmarshal\n%+v", got, pass, got, want)
		}
		format, ferr := uploadFormat(wantFormat, text)
		oracle := oracleFormat(wantFormat, *wantLog)
		if known := oracle == "xes" || oracle == "csv"; (ferr == nil) != known || known && format != oracle {
			t.Fatalf("%T, decode %d: format %q (%v), want %q", got, pass, format, ferr, oracle)
		}
		if ferr != nil {
			continue
		}
		if id := (wireID{format: format, sum: text.digest()}); id != wireKey(format, *wantLog) {
			t.Fatalf("%T, decode %d: streamed wire key differs from wireKey(%q, log)", got, pass, format)
		}
		if seq, ref := testRing.SequenceHash(shard.HashSum(text.digest())), testRing.Sequence(*wantLog); !reflect.DeepEqual(seq, ref) {
			t.Fatalf("%T, decode %d: placement %v, Ring.Sequence(log) %v", got, pass, seq, ref)
		}
	}
}

func TestDecodeEnvelopeMatchesJSON(t *testing.T) {
	for _, tc := range envelopeCases(t) {
		t.Run(seedName(tc.name), func(t *testing.T) { checkEnvelope(t, []byte(tc.body)) })
	}
}

// TestScannerTakesPlainEnvelopes pins which bodies take the fast path, on
// a log memo miss and then on a hit: a fallback is always correct, so only
// this test notices a scanner that gives up on ordinary envelopes.
func TestScannerTakesPlainEnvelopes(t *testing.T) {
	for _, tc := range envelopeCases(t) {
		logs := newLogMemo(wireMemoCapacity)
		for pass := 1; pass <= 2; pass++ {
			if text, _, _ := scanEnvelope([]byte(tc.body), logs); (text != nil) != tc.taken {
				t.Errorf("%s, scan %d: scanner took the body: %v, want %v", tc.name, pass, text != nil, tc.taken)
			}
		}
	}
}

func FuzzDecodeEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkEnvelope(t, body)
	})
}

// TestLogMemoHitNeedsTheWholeString: a log memo that knows a valid string
// S decides nothing about an envelope that carries S where encoding/json
// rejects it or reads it as another string. Each envelope decodes as
// json.Unmarshal decodes it, through a memo primed with S.
func TestLogMemoHitNeedsTheWholeString(t *testing.T) {
	quoted, err := json.Marshal(xesText(t, procgen.RunningExample(3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	contents := string(quoted[1 : len(quoted)-1])
	primed := func() *logMemo {
		logs := newLogMemo(wireMemoCapacity)
		var env routerEnvelope
		text, _, err := decodeEnvelope([]byte(`{"log":`+string(quoted)+`}`), &env, &env.Log, logs)
		if err != nil || !text.decoded {
			t.Fatalf("priming the memo: decoded %v, err %v", text != nil && text.decoded, err)
		}
		return logs
	}
	for _, tc := range []struct{ name, body string }{
		{"unterminated", `{"log":"` + contents},
		{"escaped quote then raw control", `{"log":"` + contents + "\\\"\x01\"}"},
		{"capitalised key", `{"Log":"` + contents + `"}`},
		{"malformed rest", `{"log":"` + contents + `","mode":}`},
		{"type error in the rest", `{"log":"` + contents + `","beamWidth":"wide"}`},
		{"prefix of a longer string", `{"log":"` + contents + `<x/>"}`},
		{"one byte changed", `{"log":"` + strings.Replace(contents, "concept:name", "concept:nAme", 1) + `"}`},
	} {
		t.Run(seedName(tc.name), func(t *testing.T) { checkEnvelopeMemo(t, []byte(tc.body), primed) })
	}
}

// TestLogMemoShorterHeldLength: a memo that holds a short string whose
// length lands on an escaped quote inside a longer held string still finds
// the longer one, whether one backslash escapes that quote or a run longer
// than a machine word does: checkDecode's second decode must not unescape.
func TestLogMemoShorterHeldLength(t *testing.T) {
	for _, run := range []int{1, 101} {
		// The quote of `\"` follows run backslashes at contents[1+run].
		long := "x" + strings.Repeat(`\\`, run/2) + `\"` + " and more"
		short := strings.Repeat("a", 1+run)
		primed := func() *logMemo {
			logs := newLogMemo(wireMemoCapacity)
			for _, s := range []string{short, long} {
				var env routerEnvelope
				text, _, err := decodeEnvelope([]byte(`{"log":"`+s+`"}`), &env, &env.Log, logs)
				if err != nil || !text.decoded {
					t.Fatalf("priming the memo with %q: decoded %v, err %v", s, text != nil && text.decoded, err)
				}
			}
			return logs
		}
		t.Run(fmt.Sprint("run-", run), func(t *testing.T) {
			checkEnvelopeMemo(t, []byte(`{"log":"`+long+`","mode":"dfg"}`), primed)
		})
	}
}

// TestLogMemoWithoutGCM: where cipher.NewGCM refuses, as under
// GODEBUG=fips140=only, the log memo holds nothing, and every envelope is
// unescaped in full on every decode and still decodes as json.Unmarshal
// decodes it.
func TestLogMemoWithoutGCM(t *testing.T) {
	refused := func() *logMemo {
		logs := newLogMemo(wireMemoCapacity)
		logs.gcm = nil
		return logs
	}
	for _, tc := range envelopeCases(t) {
		t.Run(seedName(tc.name), func(t *testing.T) { checkEnvelopeMemo(t, []byte(tc.body), refused) })
	}
}

// TestLogMemoConcurrent decodes repeated and distinct log strings from
// several goroutines through one small shared memo, so that hits, misses
// and evictions interleave, and checks every decode against json.Unmarshal
// only after all of them are done, and the memo's length counts against
// the entries it holds.
func TestLogMemoConcurrent(t *testing.T) {
	const workers, rounds = 6, 40
	var bodies [][]byte
	var want []string
	for i := 0; i < 9; i++ {
		log := xesText(t, procgen.RunningExample(2+i%3, int64(i)))
		body, err := json.Marshal(AbstractRequest{Log: log, Constraints: "distinct(role) <= 1"})
		if err != nil {
			t.Fatal(err)
		}
		bodies, want = append(bodies, body), append(want, log)
	}
	logs := newLogMemo(4)
	type result struct {
		body int
		text *logText
		err  error
	}
	got := make([][]result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w*7 + r*r) % len(bodies)
				var env AbstractRequest
				text, _, err := decodeEnvelope(bodies[i], &env, &env.Log, logs)
				got[w] = append(got[w], result{i, text, err})
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for _, r := range got[w] {
			if r.err != nil {
				t.Fatalf("body %d: %v", r.body, r.err)
			}
			if string(r.text.bytes()) != want[r.body] || r.text.digest() != sha256.Sum256([]byte(want[r.body])) || r.text.n != len(want[r.body]) {
				t.Fatalf("body %d decoded to another text, digest or length", r.body)
			}
		}
	}
	live := map[int]int{}
	var lens []int
	logs.lru.each(func(s logSum) {
		if live[s.escaped]++; live[s.escaped] == 1 {
			lens = append(lens, s.escaped)
		}
	})
	slices.Sort(lens)
	if logs.lru.len() != 4 || !reflect.DeepEqual(logs.count, live) || !slices.Equal(logs.lens, lens) {
		t.Fatalf("%d entries of escaped lengths %v; the memo counts %v, lengths %v", logs.lru.len(), live, logs.count, logs.lens)
	}
}

var updateSeeds = flag.Bool("update-seeds", false, "rewrite the FuzzDecodeEnvelope seed corpus in testdata")

// TestEnvelopeFuzzSeeds keeps testdata/fuzz/FuzzDecodeEnvelope equal to
// envelopeCases. Run it with -update-seeds to rewrite the corpus.
func TestEnvelopeFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeEnvelope")
	names := map[string]bool{}
	for _, tc := range envelopeCases(t) {
		if names[seedName(tc.name)] {
			t.Fatalf("two cases are named %s", seedName(tc.name))
		}
		names[seedName(tc.name)] = true
		path := filepath.Join(dir, seedName(tc.name))
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", tc.body)
		if *updateSeeds {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("seed %s is missing or stale; rewrite the corpus with go test ./internal/service -run TestEnvelopeFuzzSeeds -update-seeds", path)
		}
	}
}

// seedName turns a description into a file name.
func seedName(s string) string {
	s = strings.Map(func(r rune) rune {
		if 'a' <= r && r <= 'z' || '0' <= r && r <= '9' {
			return r
		}
		return '-'
	}, strings.ToLower(s))
	return strings.Trim(s, "-")
}

// TestUnquoteChunks decodes a long escaped string through buffers of every
// small capacity: pieces never split and the text comes out whole.
func TestUnquoteChunks(t *testing.T) {
	src, err := json.Marshal(strings.Repeat("aé\n\U0001F600<", 20) + "\xff")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	if err := json.Unmarshal(src, &want); err != nil {
		t.Fatal(err)
	}
	contents := src[1 : len(src)-1]
	for size := utf8.UTFMax; size <= 9; size++ {
		var got []byte
		for i := 0; i < len(contents); {
			var chunk []byte
			var ok bool
			chunk, i, ok = unquote(make([]byte, 0, size), contents, i)
			if !ok || len(chunk) == 0 {
				t.Fatalf("capacity %d: stuck at %d (ok %v)", size, i, ok)
			}
			got = append(got, chunk...)
		}
		if string(got) != want {
			t.Fatalf("capacity %d: decoded %q, want %q", size, got, want)
		}
	}
}

// TestVerbatimLen holds the word scan to the verbatim table: every byte
// value in every lane, after verbatim bytes and before random ones, which
// may hold more stops and must not move the first.
func TestVerbatimLen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randVerbatim := func() byte {
		for {
			if c := byte(rng.Intn(256)); verbatim[c] {
				return c
			}
		}
	}
	var b [8]byte
	for lane := range b {
		for c := 0; c < 256; c++ {
			for trial := 0; trial < 4; trial++ {
				for j := range b {
					switch {
					case j < lane:
						b[j] = randVerbatim()
					case j == lane:
						b[j] = byte(c)
					default:
						b[j] = byte(rng.Intn(256))
					}
				}
				want := 0
				for want < len(b) && verbatim[b[want]] {
					want++
				}
				if got := verbatimLen(binary.LittleEndian.Uint64(b[:])); got != want {
					t.Fatalf("verbatimLen(%q) = %d, want %d", b, got, want)
				}
			}
		}
	}
}

// filler is an endless body of "x\n" lines.
type filler struct{}

var fillerBlock = bytes.Repeat([]byte("x\n"), 32<<10)

func (filler) Read(p []byte) (int, error) { return copy(p, fillerBlock), nil }

// TestBodyCap pins maxBodyBytes on every log endpoint and on the router in
// front of them: one byte over is a 400 naming the cap, and a body of
// exactly the cap is not refused for its size.
func TestBodyCap(t *testing.T) {
	svc := New(Options{})
	t.Cleanup(svc.Close)
	c := newTestCluster(t, 2, Options{})
	post := func(h http.Handler, path string, n int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, io.LimitReader(filler{}, n))
		req.ContentLength = n
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, tc := range []struct {
		name, path string
		h          http.Handler
	}{
		{"abstract", "/abstract", Handler(svc)},
		{"pipeline", "/pipeline", Handler(svc)},
		{"router", "/abstract", c.routers[0]},
	} {
		rec := post(tc.h, tc.path, maxBodyBytes+1)
		var out errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rec.Code != http.StatusBadRequest || out.Error != "body exceeds 67108864 bytes" {
			t.Errorf("%s: status %d %q, want 400 %q", tc.name, rec.Code, out.Error, "body exceeds 67108864 bytes")
		}
	}
	rec := post(Handler(svc), "/abstract", maxBodyBytes)
	if strings.Contains(rec.Body.String(), "exceeds") {
		t.Fatalf("a body of exactly maxBodyBytes was refused: %s", rec.Body)
	}
}

// TestReadCappedSizing: a body of its declared length ends in a buffer of
// exactly that size, a body longer or shorter than declared still reads
// whole, and the buffer never holds much more than what arrived, however
// long the declared length.
func TestReadCappedSizing(t *testing.T) {
	body := bytes.Repeat([]byte("ab"), 5000)
	for _, declared := range []int64{-1, 0, 10, int64(len(body)), int64(len(body)) * 3, maxBodyBytes, maxBodyBytes * 4} {
		got, err := readCapped(bytes.NewReader(body), declared, maxBodyBytes)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("declared %d: read %d bytes, err %v", declared, len(got), err)
		}
		if declared == int64(len(body)) && cap(got) != len(body)+1 {
			t.Fatalf("declared length: capacity %d, want %d", cap(got), len(body)+1)
		}
		if cap(got) > 2*len(body) {
			t.Fatalf("declared %d: capacity %d for a %d-byte body", declared, cap(got), len(body))
		}
	}
	// A client that declares the largest body allowed and sends a few bytes
	// holds a small buffer.
	got, err := readCapped(strings.NewReader("short"), maxBodyBytes, maxBodyBytes)
	if err != nil || string(got) != "short" || cap(got) > bytes.MinRead {
		t.Fatalf("short body under a long declared length: %q, capacity %d, err %v", got, cap(got), err)
	}
	if _, err := readCapped(bytes.NewReader(body), -1, int64(len(body))-1); err == nil {
		t.Fatal("a body over the limit was accepted")
	}
}

// TestReadCappedConcurrent reads distinct bodies from several goroutines at
// once and checks every body only after all reads are done: the buffers a
// read outgrows serve later reads, and no read may see another's bytes or
// lose its own afterwards.
func TestReadCappedConcurrent(t *testing.T) {
	const readers, reads = 8, 20
	bodies := make([][]byte, readers*reads)
	got := make([][]byte, len(bodies))
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 700*(i%readers+1)+37*i)
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < len(bodies); i += readers {
				declared := int64(len(bodies[i]))
				if i%2 == 1 {
					declared = -1
				}
				b, err := readCapped(bytes.NewReader(bodies[i]), declared, maxBodyBytes)
				if err != nil {
					t.Errorf("body %d: %v", i, err)
					return
				}
				got[i] = b
			}
		}(r)
	}
	wg.Wait()
	for i := range bodies {
		if !bytes.Equal(got[i], bodies[i]) {
			t.Fatalf("body %d: read %d bytes that differ from the %d sent", i, len(got[i]), len(bodies[i]))
		}
	}
}

// TestUploadsDecodedOncePerLog: /stats uploads.decoded counts the envelope
// log strings a node unescapes in full. One log sent in envelopes to
// /abstract under three constraint sets and to /pipeline twice is decoded
// once, a second log once more, and a raw body never.
func TestUploadsDecodedOncePerLog(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	post := func(path string, env any) {
		t.Helper()
		body, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	decoded := func(want int64) {
		t.Helper()
		if n := svc.Stats().Uploads.Decoded; n != want {
			t.Fatalf("uploads.decoded = %d, want %d", n, want)
		}
	}
	logXES := runningExampleXES(t)
	for _, set := range []string{"distinct(role) <= 1", "distinct(role) <= 2", "|g| <= 3"} {
		post("/abstract", AbstractRequest{Log: logXES, Constraints: set, Mode: "dfg"})
	}
	for i := 0; i < 2; i++ {
		post("/pipeline", PipelineHTTPRequest{Log: logXES, Constraints: "distinct(role) <= 1"})
	}
	decoded(1)
	post("/abstract", AbstractRequest{Log: xesText(t, procgen.RunningExample(3, 1)), Constraints: "distinct(role) <= 1", Mode: "dfg"})
	decoded(2)
	if resp, out := postAbstract(t, srv, logXES, url.Values{"constraints": {"distinct(role) <= 3"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("raw body: status %d: %+v", resp.StatusCode, out)
	}
	decoded(2)
}

// BenchmarkReadCapped reads a 200-trace loan log's envelope body of a
// declared length, as readBody does; its B/op is what one body read leaves
// the garbage collector.
func BenchmarkReadCapped(b *testing.B) {
	body, err := json.Marshal(AbstractRequest{Log: xesText(b, procgen.LoanLog(200, 1)), Constraints: "distinct(role) <= 3"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := readCapped(bytes.NewReader(body), int64(len(body)), maxBodyBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeEnvelope decodes the envelope of a 50-trace loan log, the
// size the benchmark's repeat-hot and pipeline-tail workloads send, and of
// a 200-trace one (1.5 MB), and derives its wire key: the upload path
// against json.Unmarshal plus wireKey, the decode it replaced. hit decodes
// through a warm log memo, as a node does with a log it has seen, and fails
// if a decode unescapes the log string; miss decodes through a fresh memo
// per op, as with a first sight. miss is the one measure of that path, as
// no workload of the benchmark sends a first-sight envelope once it is
// measuring. scan is the part of a miss that validates, unescapes and
// hashes the log string, without the memo's lookup and tag.
func BenchmarkDecodeEnvelope(b *testing.B) {
	for _, traces := range []int{50, 200} {
		body, err := json.Marshal(AbstractRequest{Log: xesText(b, procgen.LoanLog(traces, 1)), Constraints: "distinct(role) <= 3"})
		if err != nil {
			b.Fatal(err)
		}
		decode := func(b *testing.B, logs *logMemo) *logText {
			var env AbstractRequest
			text, _, err := decodeEnvelope(body, &env, &env.Log, logs)
			if err != nil {
				b.Fatal(err)
			}
			_ = wireID{format: "xes", sum: text.digest()}
			return text
		}
		b.Run(fmt.Sprint("loan-", traces), func(b *testing.B) {
			b.Run("hit", func(b *testing.B) {
				warm := newLogMemo(wireMemoCapacity)
				decode(b, warm)
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if decode(b, warm).decoded {
						b.Fatal("a decode through a warm memo unescaped the log string")
					}
				}
			})
			b.Run("miss", func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					decode(b, newLogMemo(wireMemoCapacity))
				}
			})
			b.Run("scan", func(b *testing.B) {
				_, start, _ := scanEnvelope(body, newLogMemo(wireMemoCapacity))
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if text, _ := decodeString(body, start); text == nil {
						b.Fatal("the log string did not validate")
					}
				}
			})
			b.Run("unmarshal", func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var env AbstractRequest
					if err := json.Unmarshal(body, &env); err != nil {
						b.Fatal(err)
					}
					_ = wireKey("xes", env.Log)
				}
			})
		})
	}
}

// lowerStallTimeout sets bodyStallTimeout for one test. It must run before
// the test starts its servers, whose handlers read the variable; the
// restore is registered first, so it runs after their shutdown.
func lowerStallTimeout(t *testing.T, d time.Duration) {
	old := bodyStallTimeout
	t.Cleanup(func() { bodyStallTimeout = old })
	bodyStallTimeout = d
}

// TestStalledBodyTimesOut: a client that declares a body and stops sending
// gets the usual 400 once bodyStallTimeout passes without a byte, on both
// buffered endpoints and on the router in front of them, instead of
// holding its connection for ever.
func TestStalledBodyTimesOut(t *testing.T) {
	lowerStallTimeout(t, 200*time.Millisecond)
	srv, _ := newTestServer(t, Options{})
	c := newTestCluster(t, 2, Options{})
	for _, tc := range []struct{ name, addr, path string }{
		{"abstract", srv.Listener.Addr().String(), "/abstract"},
		{"pipeline", srv.Listener.Addr().String(), "/pipeline"},
		{"router", c.servers[0].Listener.Addr().String(), "/abstract"},
	} {
		conn, err := net.Dial("tcp", tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: gecco\r\nContent-Length: 100\r\n\r\n0123456789", tc.path)
		start := time.Now()
		conn.SetReadDeadline(start.Add(10 * time.Second))
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: no answer to a stalled body: %v", tc.name, err)
		}
		var out errorResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(out.Error, "reading body: ") {
			t.Fatalf("%s: status %d %q (%v), want 400 \"reading body: …\"", tc.name, resp.StatusCode, out.Error, err)
		}
		if waited := time.Since(start); waited < bodyStallTimeout {
			t.Fatalf("%s: answered after %v, before the %v deadline", tc.name, waited, bodyStallTimeout)
		}
	}
}

// TestReadBodyLeavesNoDeadline: a body put in place of net/http's own is
// read through readBody past net/http's own clearing of the deadline. A
// deadline left on the connection would cancel the request once it
// passed, in the middle of the solve.
func TestReadBodyLeavesNoDeadline(t *testing.T) {
	lowerStallTimeout(t, 50*time.Millisecond)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err == nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
			_, err = readBody(w, r)
		}
		if err == nil {
			time.Sleep(4 * bodyStallTimeout)
			err = r.Context().Err()
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
		}
	}))
	t.Cleanup(srv.Close)
	resp, err := http.Post(srv.URL, "text/plain", strings.NewReader("a body"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
}
