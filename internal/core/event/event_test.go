package event

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTableComplete(t *testing.T) {
	for _, info := range All() {
		if info.Name == "" {
			t.Fatalf("event %d has no name", info.ID)
		}
		if info.Group == 0 {
			t.Fatalf("%s has no group", info.Name)
		}
	}
}

func TestPairSymmetry(t *testing.T) {
	for _, info := range All() {
		if info.Pair == 0 {
			if info.Kind != KindPoint {
				t.Errorf("%s is %v but has no pair", info.Name, info.Kind)
			}
			continue
		}
		peer := MustLookup(info.Pair)
		if peer.Pair != info.ID {
			t.Errorf("%s pairs to %s which pairs back to %s", info.Name, peer.Name, peer.Pair)
		}
		switch info.Kind {
		case KindEnter:
			if peer.Kind != KindExit {
				t.Errorf("%s (enter) paired to non-exit %s", info.Name, peer.Name)
			}
		case KindExit:
			if peer.Kind != KindEnter {
				t.Errorf("%s (exit) paired to non-enter %s", info.Name, peer.Name)
			}
		default:
			t.Errorf("%s is a point event with a pair", info.Name)
		}
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]ID{}
	for _, info := range All() {
		if prev, dup := seen[info.Name]; dup {
			t.Fatalf("name %s used by %d and %d", info.Name, prev, info.ID)
		}
		seen[info.Name] = info.ID
	}
}

func TestLookupBounds(t *testing.T) {
	if _, ok := Lookup(0); ok {
		t.Fatal("Lookup(0) succeeded")
	}
	if _, ok := Lookup(MaxID); ok {
		t.Fatal("Lookup(MaxID) succeeded")
	}
	if _, ok := Lookup(SPEMFCGet); !ok {
		t.Fatal("Lookup(SPEMFCGet) failed")
	}
}

func TestByName(t *testing.T) {
	info, ok := ByName("SPE_MFC_GET")
	if !ok || info.ID != SPEMFCGet {
		t.Fatalf("ByName(SPE_MFC_GET) = %v,%v", info.ID, ok)
	}
	if _, ok := ByName("NO_SUCH_EVENT"); ok {
		t.Fatal("ByName of garbage succeeded")
	}
}

func TestGroupStringAndParse(t *testing.T) {
	for _, g := range Groups() {
		name := g.String()
		back, ok := ParseGroup(name)
		if !ok || back != g {
			t.Fatalf("ParseGroup(%q) = %v,%v", name, back, ok)
		}
	}
	if g, ok := ParseGroup("all"); !ok || g != GroupAll {
		t.Fatal("ParseGroup(all) failed")
	}
	if _, ok := ParseGroup("bogus"); ok {
		t.Fatal("ParseGroup(bogus) succeeded")
	}
	combined := GroupMFC | GroupMailbox
	if s := combined.String(); !strings.Contains(s, "mfc") || !strings.Contains(s, "mailbox") {
		t.Fatalf("combined String = %q", s)
	}
}

func TestIDString(t *testing.T) {
	if SPEMFCGet.String() != "SPE_MFC_GET" {
		t.Fatalf("got %q", SPEMFCGet.String())
	}
	if s := ID(9999).String(); !strings.Contains(s, "9999") {
		t.Fatalf("unknown id String = %q", s)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := Record{
		ID:    SPEMFCGet,
		Core:  3,
		Flags: FlagDecrTime,
		Time:  123456789,
		Args:  []uint64{0x100, 0xdeadbeef, 4096, 5},
	}
	buf, err := r.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.ID != r.ID || got.Core != r.Core || got.Flags != r.Flags || got.Time != r.Time {
		t.Fatalf("header mismatch: %+v vs %+v", got, r)
	}
	for i := range r.Args {
		if got.Args[i] != r.Args[i] {
			t.Fatalf("arg %d = %d, want %d", i, got.Args[i], r.Args[i])
		}
	}
}

func TestEncodeDecodeStringPayload(t *testing.T) {
	r := Record{
		ID:    SPEUserLog,
		Core:  0,
		Flags: FlagHasStr | FlagDecrTime,
		Time:  42,
		Str:   "phase: compute",
	}
	buf, err := r.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Str != r.Str {
		t.Fatalf("Str = %q, want %q", got.Str, r.Str)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good, err := (&Record{ID: SPEProgramEnd, Core: 1, Time: 1, Args: []uint64{0}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:5] }},
		{"size below header", func(b []byte) []byte { b[0] = 3; return b }},
		{"unknown id", func(b []byte) []byte { b[1], b[2] = 0xFF, 0x7F; return b }},
		{"wrong arity", func(b []byte) []byte { b[13] = 7; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			b = tc.mut(b)
			if _, _, err := Decode(b); err == nil {
				t.Fatalf("%s: decode succeeded", tc.name)
			}
		})
	}
}

func TestDecodeShortIsErrShortRecord(t *testing.T) {
	buf, err := (&Record{ID: SPEProgramEnd, Core: 1, Time: 1, Args: []uint64{0}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(buf[:len(buf)-2]); err != ErrShortRecord {
		t.Fatalf("err = %v, want ErrShortRecord", err)
	}
}

func TestArgByName(t *testing.T) {
	r := Record{ID: SPEMFCPut, Args: []uint64{64, 0x2000, 512, 9}}
	if v, ok := r.Arg("size"); !ok || v != 512 {
		t.Fatalf("Arg(size) = %d,%v", v, ok)
	}
	if v, ok := r.Arg("tag"); !ok || v != 9 {
		t.Fatalf("Arg(tag) = %d,%v", v, ok)
	}
	if _, ok := r.Arg("nope"); ok {
		t.Fatal("Arg(nope) succeeded")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{ID: SPEMFCGet, Core: 2, Time: 99, Args: []uint64{0, 1, 16, 3}}
	s := r.String()
	for _, want := range []string{"SPE2", "SPE_MFC_GET", "size=16", "tag=3", "t=99"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
	p := Record{ID: PPEWriteSignal, Core: CorePPE, Args: []uint64{1, 1, 4}}
	if !strings.Contains(p.String(), "PPE") {
		t.Fatalf("PPE record String = %q", p.String())
	}
}

// Property: encode/decode round-trips arbitrary records built over the
// real metadata table.
func TestRoundTripProperty(t *testing.T) {
	ids := All()
	f := func(idIdx uint16, core uint8, time uint64, seed uint64, strLen uint8) bool {
		info := ids[int(idIdx)%len(ids)]
		r := Record{ID: info.ID, Core: core, Time: time}
		x := seed
		for range info.Args {
			x = x*6364136223846793005 + 1442695040888963407
			r.Args = append(r.Args, x)
		}
		if int(strLen)%3 == 0 {
			r.Flags |= FlagHasStr
			n := int(strLen) % MaxStrLen
			b := make([]byte, n)
			for i := range b {
				x = x*6364136223846793005 + 1442695040888963407
				b[i] = byte(x)
			}
			r.Str = string(b)
		}
		buf, err := r.AppendTo(nil)
		if err != nil {
			return false
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if got.ID != r.ID || got.Core != r.Core || got.Time != r.Time || got.Str != r.Str {
			return false
		}
		for i := range r.Args {
			if got.Args[i] != r.Args[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	r := Record{ID: SPEUserEvent, Core: 1, Args: []uint64{1, 2, 3}}
	buf, err := r.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != r.EncodedSize() {
		t.Fatalf("len = %d, EncodedSize = %d", len(buf), r.EncodedSize())
	}
}
