package eventlog_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"gecco/internal/eventlog"
)

// FuzzReadIndex holds ReadIndex to two properties on arbitrary bytes: it
// never panics, and whatever it decodes rewrites canonically — the rewrite
// reads back and re-encodes to the same bytes. Checksums are re-sealed
// first, so mutated payloads reach the structural decoders instead of
// stopping at the CRC. The seeds live in testdata/fuzz/FuzzReadIndex (see
// TestIndexFuzzSeeds).
func FuzzReadIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		data = resealSegments(data)
		x, err := eventlog.ReadIndex(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		first := encode(t, x)
		y, err := eventlog.ReadIndex(bytes.NewReader(first), int64(len(first)))
		if err != nil {
			t.Fatalf("rewrite of a decoded index does not read back: %v", err)
		}
		if !bytes.Equal(encode(t, y), first) {
			t.Fatal("rewrite of a decoded index is not canonical")
		}
	})
}

// resealSegments returns a copy of data in which every segment-table entry
// whose payload lies inside the file carries that payload's CRC. Offsets
// follow docs/FORMAT.md: segment count at byte 16, table offset at 24,
// 32-byte entries with offset, length and CRC at 8, 16 and 24.
func resealSegments(data []byte) []byte {
	data = bytes.Clone(data)
	if len(data) < 40 {
		return data
	}
	size := uint64(len(data))
	count := uint64(binary.LittleEndian.Uint32(data[16:]))
	table := binary.LittleEndian.Uint64(data[24:])
	for i := uint64(0); i < count; i++ {
		e := table + i*32
		if e > size || size-e < 32 {
			break
		}
		entry := data[e : e+32]
		off, n := binary.LittleEndian.Uint64(entry[8:]), binary.LittleEndian.Uint64(entry[16:])
		if off <= size && n <= size-off {
			binary.LittleEndian.PutUint32(entry[24:], crc32.ChecksumIEEE(data[off:off+n]))
		}
	}
	return data
}

var updateSeeds = flag.Bool("update-seeds", false, "rewrite the FuzzReadIndex seed corpus in testdata")

// TestIndexFuzzSeeds keeps testdata/fuzz/FuzzReadIndex equal to the seeds it
// is made of: the encodings of gnarlyLog, a 40-trace running example and
// the empty log, plus truncations and byte flips of the gnarly encoding in
// the manner of TestIndexCorruption. Run it with -update-seeds to rewrite
// the corpus.
func TestIndexFuzzSeeds(t *testing.T) {
	seeds := map[string][]byte{}
	logs := ioTestLogs()
	for _, name := range []string{"gnarly", "running", "empty"} {
		seeds["log-"+name] = encode(t, eventlog.NewIndex(logs[name]))
	}
	gnarly := seeds["log-gnarly"]
	for _, n := range []int{39, len(gnarly) / 3, len(gnarly) - 1} {
		seeds[fmt.Sprintf("gnarly-truncated-%d", n)] = gnarly[:n]
	}
	for _, i := range []int{len(gnarly) / 4, len(gnarly) / 2, 3 * len(gnarly) / 4} {
		mut := bytes.Clone(gnarly)
		mut[i] ^= 0x41
		seeds[fmt.Sprintf("gnarly-flip-%d", i)] = mut
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzReadIndex")
	for name, data := range seeds {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
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
			t.Errorf("seed %s is missing or stale; rewrite the corpus with go test ./internal/eventlog -run TestIndexFuzzSeeds -update-seeds", path)
		}
	}
}
