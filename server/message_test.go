package server

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"press/cache"
	"press/core"
	"press/tracing"
	"press/via"
)

func TestMessageRoundTrip(t *testing.T) {
	cases := []Message{
		{Type: core.MsgLoad, From: 3, Load: 42},
		{Type: core.MsgFlow, From: 1, Credits: 8, Load: -1},
		{Type: core.MsgForward, From: 0, ReqID: 77, Name: "/a/b.html", Load: 5},
		{Type: core.MsgCaching, From: 7, Name: "/c.gif", Cached: true},
		{Type: core.MsgCaching, From: 7, Name: "/c.gif", Cached: false},
		{Type: core.MsgFile, From: 2, ReqID: 9, Data: []byte("payload"), Offset: 32768, Total: 32775},
	}
	for i, m := range cases {
		m := m
		buf, err := m.Encode(nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(buf) != m.EncodedLen() {
			t.Errorf("case %d: encoded %d bytes, EncodedLen %d", i, len(buf), m.EncodedLen())
		}
		got, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Type != m.Type || got.From != m.From || got.Load != m.Load ||
			got.ReqID != m.ReqID || got.Name != m.Name || got.Cached != m.Cached ||
			got.Credits != m.Credits || got.Offset != m.Offset || got.Total != m.Total ||
			!bytes.Equal(got.Data, m.Data) {
			t.Errorf("case %d: round trip mismatch: %+v vs %+v", i, got, m)
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	check := func(from uint8, load int32, reqID uint64, name string, data []byte, off, total uint32) bool {
		if len(name) > maxNameLen {
			name = name[:maxNameLen]
		}
		m := Message{Type: core.MsgFile, From: int(from), Load: load, ReqID: reqID,
			Name: name, Data: data, Offset: off, Total: total}
		buf, err := m.Encode(nil)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(buf)
		if err != nil {
			return false
		}
		return got.Name == m.Name && bytes.Equal(got.Data, m.Data) &&
			got.Load == m.Load && got.ReqID == m.ReqID
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := Message{Type: core.MsgForward, Name: "/x", ReqID: 1}
	buf, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(buf[:5]); err == nil {
		t.Error("short buffer accepted")
	}
	bad := append([]byte{}, buf...)
	bad[0] = 99 // invalid type
	if _, err := DecodeMessage(bad); err == nil {
		t.Error("invalid type accepted")
	}
	bad2 := append([]byte{}, buf...)
	bad2[30] = 0xFF // data length beyond buffer
	bad2[31] = 0xFF
	if _, err := DecodeMessage(bad2); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	long := make([]byte, maxNameLen+1)
	m := Message{Type: core.MsgForward, Name: string(long)}
	if _, err := m.Encode(nil); err == nil {
		t.Error("overlong name accepted")
	}
	m2 := Message{Type: core.MsgType(99)}
	if _, err := m2.Encode(nil); err == nil {
		t.Error("invalid type accepted")
	}
}

func TestMessageTraceRoundTrip(t *testing.T) {
	cases := []Message{
		{Type: core.MsgForward, From: 0, ReqID: 77, Name: "/a/b.html", Load: 5,
			TraceID: 0xdeadbeefcafe, ParentSpan: 0x1234},
		{Type: core.MsgFile, From: 2, ReqID: 9, Data: []byte("payload"), Offset: 1, Total: 8,
			TraceID: 1, ParentSpan: 0},
		{Type: core.MsgLoad, From: 3, Load: 42, TraceID: ^tracing.TraceID(0), ParentSpan: ^tracing.SpanID(0)},
	}
	for i, m := range cases {
		m := m
		buf, err := m.Encode(nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(buf) != m.EncodedLen() {
			t.Errorf("case %d: encoded %d bytes, EncodedLen %d", i, len(buf), m.EncodedLen())
		}
		got, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.TraceID != m.TraceID || got.ParentSpan != m.ParentSpan {
			t.Errorf("case %d: trace context %x/%x, want %x/%x",
				i, got.TraceID, got.ParentSpan, m.TraceID, m.ParentSpan)
		}
		if got.Type != m.Type || got.ReqID != m.ReqID || got.Name != m.Name ||
			!bytes.Equal(got.Data, m.Data) {
			t.Errorf("case %d: round trip mismatch: %+v vs %+v", i, got, m)
		}
	}
}

// TestMessageTraceCompat pins the wire-format versioning contract: an
// untraced message is byte-identical to the pre-tracing format, a
// traced message is invalid to a pre-tracing decoder (the flag bit
// lands outside the valid type range), and malformed trace extensions
// are rejected rather than misparsed.
func TestMessageTraceCompat(t *testing.T) {
	m := Message{Type: core.MsgForward, From: 4, ReqID: 11, Name: "/f.html", Load: 2}
	plain, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != msgHeaderLen+len(m.Name) {
		t.Errorf("untraced message is %d bytes, old format is %d", len(plain), msgHeaderLen+len(m.Name))
	}
	if plain[0]&msgTraceFlag != 0 {
		t.Error("untraced message carries the trace flag")
	}
	got, err := DecodeMessage(plain)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0 || got.ParentSpan != 0 {
		t.Errorf("untraced decode invented trace context %x/%x", got.TraceID, got.ParentSpan)
	}

	m.TraceID, m.ParentSpan = 0xabc, 0xdef
	traced, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) != len(plain)+msgTraceExtLen {
		t.Errorf("traced message is %d bytes, want %d", len(traced), len(plain)+msgTraceExtLen)
	}
	// A pre-tracing decoder validated buf[0] against the type range; the
	// flag bit must push it out of range so old software fails cleanly
	// instead of misreading the extension as name/data bytes.
	if oldType := core.MsgType(traced[0]); oldType >= 0 && oldType < core.NumMsgTypes {
		t.Errorf("traced type byte %#x still decodes as valid type %v for pre-tracing software",
			traced[0], oldType)
	}
	// Everything outside the flag bit and the extension is unchanged.
	if traced[0]&^byte(msgTraceFlag) != plain[0] {
		t.Error("type byte differs beyond the flag bit")
	}
	if !bytes.Equal(traced[1:msgHeaderLen], plain[1:msgHeaderLen]) {
		t.Error("fixed header differs between traced and untraced encodings")
	}
	if !bytes.Equal(traced[msgHeaderLen+msgTraceExtLen:], plain[msgHeaderLen:]) {
		t.Error("body differs between traced and untraced encodings")
	}

	if _, err := DecodeMessage(traced[:msgHeaderLen+4]); err == nil {
		t.Error("short trace extension accepted")
	}
	zero := append([]byte{}, traced...)
	for i := 0; i < msgTraceExtLen; i++ {
		zero[msgHeaderLen+i] = 0
	}
	if _, err := DecodeMessage(zero); err == nil {
		t.Error("zero trace id in extension accepted")
	}
}

func TestMessageDeadlineRoundTrip(t *testing.T) {
	cases := []Message{
		{Type: core.MsgForward, From: 0, ReqID: 77, Name: "/a/b.html", Load: 5,
			Budget: 250 * time.Millisecond},
		{Type: core.MsgFile, From: 2, ReqID: 9, Data: []byte("payload"), Offset: 1, Total: 8,
			Budget: time.Nanosecond},
		{Type: core.MsgForward, From: 1, ReqID: 5, Name: "/t.html", Load: 3,
			TraceID: 0xfeed, ParentSpan: 0xbeef, Budget: 5 * time.Second},
	}
	for i, m := range cases {
		m := m
		buf, err := m.Encode(nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(buf) != m.EncodedLen() {
			t.Errorf("case %d: encoded %d bytes, EncodedLen %d", i, len(buf), m.EncodedLen())
		}
		got, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Budget != m.Budget {
			t.Errorf("case %d: budget %v, want %v", i, got.Budget, m.Budget)
		}
		if got.TraceID != m.TraceID || got.ParentSpan != m.ParentSpan {
			t.Errorf("case %d: trace context %x/%x, want %x/%x",
				i, got.TraceID, got.ParentSpan, m.TraceID, m.ParentSpan)
		}
		if got.Type != m.Type || got.ReqID != m.ReqID || got.Name != m.Name ||
			!bytes.Equal(got.Data, m.Data) {
			t.Errorf("case %d: round trip mismatch: %+v vs %+v", i, got, m)
		}
	}
}

// TestMessageDeadlineCompat pins the second wire extension to the same
// versioning contract as the trace extension: an undeadlined message is
// byte-identical to the previous format, a deadlined one is invalid to
// earlier decoders, the extension follows the trace extension when both
// are present, and malformed extensions are rejected.
func TestMessageDeadlineCompat(t *testing.T) {
	m := Message{Type: core.MsgForward, From: 4, ReqID: 11, Name: "/f.html", Load: 2}
	plain, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0]&msgDeadlineFlag != 0 {
		t.Error("undeadlined message carries the deadline flag")
	}

	m.Budget = 100 * time.Millisecond
	dl, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dl) != len(plain)+msgDeadlineExtLen {
		t.Errorf("deadlined message is %d bytes, want %d", len(dl), len(plain)+msgDeadlineExtLen)
	}
	// Pre-deadline decoders validated buf[0] against the type range; the
	// flag bit must push it out of range so they fail cleanly.
	if oldType := core.MsgType(dl[0]); oldType >= 0 && oldType < core.NumMsgTypes {
		t.Errorf("deadlined type byte %#x still decodes as valid type %v for earlier software",
			dl[0], oldType)
	}
	if dl[0]&^byte(msgDeadlineFlag) != plain[0] {
		t.Error("type byte differs beyond the flag bit")
	}
	if !bytes.Equal(dl[1:msgHeaderLen], plain[1:msgHeaderLen]) {
		t.Error("fixed header differs between deadlined and plain encodings")
	}
	if !bytes.Equal(dl[msgHeaderLen+msgDeadlineExtLen:], plain[msgHeaderLen:]) {
		t.Error("body differs between deadlined and plain encodings")
	}

	// Both extensions: trace first, deadline second.
	m.TraceID, m.ParentSpan = 0xabc, 0xdef
	both, err := m.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != len(plain)+msgTraceExtLen+msgDeadlineExtLen {
		t.Errorf("combined message is %d bytes, want %d",
			len(both), len(plain)+msgTraceExtLen+msgDeadlineExtLen)
	}
	got, err := DecodeMessage(both)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0xabc || got.ParentSpan != 0xdef || got.Budget != m.Budget {
		t.Errorf("combined decode: trace %x/%x budget %v", got.TraceID, got.ParentSpan, got.Budget)
	}

	if _, err := DecodeMessage(dl[:msgHeaderLen+4]); err == nil {
		t.Error("short deadline extension accepted")
	}
	zero := append([]byte{}, dl...)
	for i := 0; i < msgDeadlineExtLen; i++ {
		zero[msgHeaderLen+i] = 0
	}
	if _, err := DecodeMessage(zero); err == nil {
		t.Error("zero budget in extension accepted")
	}
	neg := append([]byte{}, dl...)
	for i := 0; i < msgDeadlineExtLen; i++ {
		neg[msgHeaderLen+i] = 0xFF // uint64 with the top bit set = negative duration
	}
	if _, err := DecodeMessage(neg); err == nil {
		t.Error("negative budget in extension accepted")
	}

	bad := Message{Type: core.MsgForward, Name: "/x", Budget: -time.Second}
	if _, err := bad.Encode(nil); err == nil {
		t.Error("negative budget encoded")
	}
}

// FuzzMessageRoundTrip feeds arbitrary bytes to the decoder and checks
// that whatever decodes re-encodes to a decodable message with the same
// wire-visible fields. The seeds cover every message type, both trace
// states, and the malformed-extension edges. It also holds the
// transports' in-place decoder to the exported one: decodeInto accepts
// exactly what DecodeMessage does and overwrites every field of a
// Message full of garbage with the same values, a name in the intern
// table (the seeds') decodes to the table's string, and any other name
// to a copy that does not point into the frame.
func FuzzMessageRoundTrip(f *testing.F) {
	seeds := []Message{
		{Type: core.MsgLoad, From: 3, Load: 42},
		{Type: core.MsgFlow, From: 1, Credits: 8, Load: -1},
		{Type: core.MsgForward, From: 0, ReqID: 77, Name: "/a/b.html", Load: 5},
		{Type: core.MsgCaching, From: 7, Name: "/c.gif", Cached: true},
		{Type: core.MsgFile, From: 2, ReqID: 9, Data: []byte("payload"), Offset: 32768, Total: 32775},
		{Type: core.MsgForward, From: 1, ReqID: 5, Name: "/t.html", TraceID: 0xfeed, ParentSpan: 0xbeef},
		{Type: core.MsgFile, From: 6, ReqID: 2, Data: []byte("x"), TraceID: 1},
		{Type: core.MsgForward, From: 4, ReqID: 8, Name: "/d.html", Budget: 250 * time.Millisecond},
		{Type: core.MsgForward, From: 5, ReqID: 13, Name: "/td.html",
			TraceID: 0xfeed, ParentSpan: 0xbeef, Budget: time.Second},
	}
	names := nameTable{}
	for _, m := range seeds {
		m := m
		buf, err := m.Encode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		if m.Name != "" {
			names[m.Name] = strings.Clone(m.Name)
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, msgHeaderLen))               // zero type, empty body
	f.Add(append(make([]byte, msgHeaderLen), 0xFF)) // trailing garbage
	unknown, _ := (&Message{Type: core.MsgCaching, From: 2, Name: "/not/interned.html"}).Encode(nil)
	f.Add(unknown)
	garbage := Message{Type: core.MsgDirSync, From: 99, Load: 7, ReqID: 1, Name: "garbage",
		Cached: true, Credits: 3, Data: []byte("junk"), Offset: 5, Total: 6, TraceID: 9,
		ParentSpan: 8, DirSet: cache.NodeSetOf(1, 200), DirSetValid: true, Budget: time.Hour,
		deadline: time.Unix(1, 0), SrcRegion: new(via.MemoryRegion), SrcOffset: 4, buf: &recvBuf{}}
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := DecodeMessage(buf)
		in := garbage
		if inErr := names.decodeInto(&in, buf); (inErr == nil) != (err == nil) {
			t.Fatalf("DecodeMessage says %v, decodeInto says %v", err, inErr)
		}
		if err != nil {
			return // rejecting garbage is fine; crashing is not
		}
		if !reflect.DeepEqual(in, *m) {
			t.Fatalf("decodeInto over garbage %+v, DecodeMessage %+v", in, *m)
		}
		if s, ok := names[in.Name]; ok {
			if unsafe.StringData(in.Name) != unsafe.StringData(s) {
				t.Fatalf("name %q in the table decoded to a copy", in.Name)
			}
		} else if n := len(in.Name); n > 0 {
			at := uintptr(unsafe.Pointer(unsafe.StringData(in.Name)))
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
			if at >= lo && at < lo+uintptr(len(buf)) {
				t.Fatalf("name %q outside the table points into the frame", in.Name)
			}
		}
		re, err := m.Encode(nil)
		if err != nil {
			t.Fatalf("decoded message fails to re-encode: %v (%+v)", err, m)
		}
		m2, err := DecodeMessage(re)
		if err != nil {
			t.Fatalf("re-encoded message fails to decode: %v", err)
		}
		if m2.Type != m.Type || m2.From != m.From || m2.Load != m.Load ||
			m2.ReqID != m.ReqID || m2.Name != m.Name || m2.Cached != m.Cached ||
			m2.Credits != m.Credits || m2.Offset != m.Offset || m2.Total != m.Total ||
			m2.TraceID != m.TraceID || m2.ParentSpan != m.ParentSpan ||
			m2.Budget != m.Budget ||
			!bytes.Equal(m2.Data, m.Data) {
			t.Fatalf("round trip drift: %+v vs %+v", m2, m)
		}
	})
}

func TestSynthesizeContentDeterministic(t *testing.T) {
	a := SynthesizeContent("/x.html", 1000)
	b := SynthesizeContent("/x.html", 1000)
	c := SynthesizeContent("/y.html", 1000)
	if !bytes.Equal(a, b) {
		t.Error("content not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Error("different names produced identical content")
	}
	if len(a) != 1000 {
		t.Errorf("length %d", len(a))
	}
	// Each step writes a whole word and a short tail is cut from the
	// next one: every size, word-aligned or not, is deterministic and a
	// prefix of every larger size.
	for _, n := range []int64{0, 1, 7, 8, 9, 4097} {
		got := SynthesizeContent("/x.html", n)
		if int64(len(got)) != n {
			t.Errorf("size %d: length %d", n, len(got))
		}
		if !bytes.Equal(got, SynthesizeContent("/x.html", n)) {
			t.Errorf("size %d: content not deterministic", n)
		}
		for _, k := range []int64{1, 7, 8, 9, 4097} {
			if longer := SynthesizeContent("/x.html", n+k); !bytes.HasPrefix(longer, got) {
				t.Errorf("size %d is not a prefix of size %d", n, n+k)
			}
		}
	}
}
