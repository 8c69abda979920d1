package obsv

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"
)

// traceFixture covers every span kind and argument field the Chrome export
// must carry: durations, instants, block scoping, bytes, attempts, outcomes.
func traceFixture() []Span {
	return []Span{
		{Sample: 0, Kind: SpanSample, Lane: LaneHost, Block: -1, StartNS: 0, DurNS: 500, Mispredicted: true, CacheHit: true},
		{Sample: 0, Kind: SpanPilot, Lane: LaneHost, Block: -1},
		{Sample: 0, Kind: SpanMapping, Lane: LaneHost, Block: -1},
		{Sample: 0, Kind: SpanPrefetch, Lane: LaneH2D, Block: 0, StartNS: 0, DurNS: 100, Bytes: 4096},
		{Sample: 0, Kind: SpanCompute, Lane: LaneCompute, Block: 0, StartNS: 100, DurNS: 200},
		{Sample: 0, Kind: SpanRetry, Lane: LaneH2D, Block: 1, StartNS: 100, DurNS: 50, Bytes: 2048, Attempt: 1},
		{Sample: 0, Kind: SpanOnDemand, Lane: LaneH2D, Block: 1, StartNS: 300, DurNS: 80, Bytes: 2048},
		{Sample: 0, Kind: SpanFault, Lane: LaneHost, Block: 1, StartNS: 380, DurNS: 20},
		{Sample: 0, Kind: SpanEvict, Lane: LaneD2H, Block: 0, StartNS: 300, DurNS: 150, Bytes: 4096},
		{Sample: 1, Kind: SpanSample, Lane: LaneHost, Block: -1, StartNS: 500, DurNS: 100},
		{Sample: 1, Kind: SpanCompute, Lane: LaneCompute, Block: 0, StartNS: 500, DurNS: 100},
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans := traceFixture()
	meta := ChromeMeta{Label: "Tree-LSTM epoch", LinkBWBytesPerSec: 12.8e9, Samples: 2}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans, meta); err != nil {
		t.Fatal(err)
	}
	got, gotMeta, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Errorf("meta round-trip: got %+v want %+v", gotMeta, meta)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("span round-trip diverged:\ngot  %+v\nwant %+v", got, spans)
	}
	// The written file must also pass its own validator.
	if err := CheckChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("written trace fails CheckChromeTrace: %v", err)
	}
	// Pilot/mapping instants must be instant events, not zero-width slices:
	// Perfetto renders "i" markers but drops dur-0 "X" events on some tracks.
	text := buf.String()
	if !strings.Contains(text, `"ph":"i"`) {
		t.Error("no instant events in exported trace")
	}
}

func TestCheckChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name, file, wantErr string
	}{
		{"not json", `{"traceEvents": [`, "not valid JSON"},
		{"empty", `{"traceEvents": []}`, "empty traceEvents"},
		{"unknown phase", `{"traceEvents": [{"name":"x","ph":"B","ts":0,"pid":1,"tid":1}]}`, "unsupported phase"},
		{"X without dur", `{"traceEvents": [{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}`, "non-negative dur"},
		{"negative ts", `{"traceEvents": [{"name":"x","ph":"X","ts":-1,"dur":5,"pid":1,"tid":1}]}`, "negative ts"},
		{"negative tid", `{"traceEvents": [{"name":"x","ph":"X","ts":0,"dur":5,"pid":1,"tid":-2}]}`, "negative pid/tid"},
		{"anonymous metadata", `{"traceEvents": [{"name":"thread_name","ph":"M","pid":1,"tid":1}]}`, "without args.name"},
		{"unknown metadata", `{"traceEvents": [{"name":"counter_name","ph":"M","pid":1,"tid":1}]}`, "unknown metadata"},
		{"bad instant scope", `{"traceEvents": [{"name":"x","ph":"i","ts":0,"pid":1,"tid":1,"s":"z"}]}`, "instant event scope"},
		{"unnamed instant", `{"traceEvents": [{"ph":"i","ts":0,"pid":1,"tid":1}]}`, "i event without name"},
		{"negative X dur", `{"traceEvents": [{"name":"x","ph":"X","ts":0,"dur":-5,"pid":1,"tid":2}]}`, "non-negative dur"},
		{"negative instant dur", `{"traceEvents": [{"name":"x","ph":"i","ts":0,"dur":-5,"pid":1,"tid":1}]}`, "non-negative dur"},
		{"huge ts", `{"traceEvents": [{"name":"x","ph":"X","ts":1e300,"dur":5,"pid":1,"tid":2}]}`, "beyond"},
		{"huge dur", `{"traceEvents": [{"name":"x","ph":"X","ts":0,"dur":1e300,"pid":1,"tid":2}]}`, "beyond"},
		{"negative block", `{"traceEvents": [{"name":"x","ph":"X","ts":0,"dur":5,"pid":1,"tid":2,"args":{"block":-2}}]}`, "negative block"},
	}
	// The reader refuses every per-event violation the validator refuses,
	// instead of loading it into spans; only the file-level checks are the
	// validator's alone.
	fileLevel := map[string]bool{"not json": true, "empty": true}
	for _, tc := range cases {
		err := CheckChromeTrace(strings.NewReader(tc.file))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
		if fileLevel[tc.name] {
			continue
		}
		if _, _, err := ReadChromeTrace(strings.NewReader(tc.file)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: ReadChromeTrace err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
	ok := `{"traceEvents": [{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"h2d"}}]}`
	if err := CheckChromeTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("valid minimal trace rejected: %v", err)
	}
}

// FuzzReadChromeTrace: no input makes ReadChromeTrace, or the analyses
// dynntrace runs on what it returns, panic; and every span set it returns
// is written and read back unchanged.
func FuzzReadChromeTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, traceFixture(), ChromeMeta{Label: "fixture", LinkBWBytesPerSec: 12.8e9}); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		buf.String(), `{"traceEvents": []}`, `{"traceEvents": [`,
		`{"traceEvents": [{"name":"x","ph":"X","ts":0.0015,"dur":3,"pid":1,"tid":7}]}`,
		`{"traceEvents": [{"name":"thread_name","ph":"M","pid":1,"tid":9,"args":{"name":"link/0"}},` +
			`{"name":"x","ph":"X","ts":2,"dur":1,"pid":1,"tid":9,"args":{"request":3,"tenant":"a","block":1}}]}`,
		`{"traceEvents": [{"name":"x","ph":"i","ts":1e12,"dur":1e12,"pid":1,"tid":3}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Add([]byte("\x00\x01\x01\xff\x00\x00\x00\x80\x17\x05\x00\x20\x07\x00\x00\x00" +
		"\x02\x02\x05\xfe\xff\xff\xff\xff\x00\x00\x00\x00\x01\x02\x03\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		writeReadWrite(t, spansOf(data))
		spans, meta, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		tl := NewTimeline(spans, meta.LinkBWBytesPerSec)
		tl.Overlap()
		tl.ASCII(io.Discard, 16)
		tl.Blocks()
		AssembleRequests(spans)

		var out bytes.Buffer
		if err := WriteChromeTrace(&out, spans, meta); err != nil {
			t.Fatal(err)
		}
		again, _, err := ReadChromeTrace(&out)
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(again, spans) {
			t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", again, spans)
		}
	})
}

// spansOf decodes fuzz bytes into an arbitrary span set, 16 bytes a span:
// kinds and lanes come from vocabularies that include the empty string and
// invalid UTF-8, blocks range over int8, and starts and durations reach past
// both ends of the writable range.
func spansOf(data []byte) []Span {
	kinds := []SpanKind{"", SpanCompute, SpanPilot, SpanMapping, SpanPrefetch, "ad hoc <kind>", "\xff"}
	lanes := []string{"", LaneHost, LaneCompute, LaneH2D, LaneD2H, "link/0", "link/1", "\xfe"}
	tenants := []string{"", "a", "b\"c", "\xc3"}
	var spans []Span
	for ; len(data) >= 16; data = data[16:] {
		b := data[:16]
		start := int64(int32(binary.LittleEndian.Uint32(b[4:8]))) << (b[8] % 24)
		dur := int64(int16(binary.LittleEndian.Uint16(b[9:11]))) << (b[11] % 48)
		spans = append(spans, Span{
			Sample: int(int8(b[0])), Kind: kinds[int(b[1])%len(kinds)], Lane: lanes[int(b[2])%len(lanes)],
			Block: int(int8(b[3])), StartNS: start, DurNS: dur,
			Bytes: int64(b[12]) << 20, Attempt: int(b[13] % 4),
			Mispredicted: b[13]&0x10 != 0, CacheHit: b[13]&0x20 != 0,
			Request: int64(int8(b[14])), Tenant: tenants[int(b[14])%len(tenants)],
			Replica: int(b[15] % 3),
		})
	}
	return spans
}

// writeReadWrite checks the writer against its reader: a span set
// WriteChromeTrace accepts reads back equal, with its metadata, and writes
// again to the same bytes.
func writeReadWrite(t *testing.T, spans []Span) {
	t.Helper()
	meta := ChromeMeta{Label: "fuzz", LinkBWBytesPerSec: 12.8e9, Samples: len(spans)}
	var first bytes.Buffer
	if err := WriteChromeTrace(&first, spans, meta); err != nil {
		return
	}
	got, gotMeta, err := ReadChromeTrace(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("written trace does not read back: %v\n%s", err, first.String())
	}
	if (len(got) > 0 || len(spans) > 0) && !reflect.DeepEqual(got, spans) {
		t.Fatalf("write -> read diverged:\ngot  %+v\nwant %+v", got, spans)
	}
	if gotMeta != meta {
		t.Fatalf("metadata read back as %+v, want %+v", gotMeta, meta)
	}
	var second bytes.Buffer
	if err := WriteChromeTrace(&second, got, gotMeta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("write -> read -> write changed the file:\n%s\n%s", first.String(), second.String())
	}
}

// TestWriteChromeTraceRejectsUnreadableSpans pins the three span shapes the
// writer once wrote but its reader rejected or read back changed.
func TestWriteChromeTraceRejectsUnreadableSpans(t *testing.T) {
	for name, sp := range map[string]Span{
		"empty kind":      {Kind: "", Lane: LaneHost, Block: -1},
		"empty lane":      {Kind: SpanCompute, Lane: "", Block: 0},
		"block below -1":  {Kind: SpanCompute, Lane: LaneCompute, Block: -2},
		"negative start":  {Kind: SpanCompute, Lane: LaneCompute, StartNS: -1},
		"invalid tenant":  {Kind: SpanQueue, Lane: LaneHost, Block: -1, Tenant: "\xff"},
		"beyond 2^50 dur": {Kind: SpanCompute, Lane: LaneCompute, DurNS: maxTraceNS + 1},
	} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, []Span{sp}, ChromeMeta{}); err == nil {
			t.Errorf("%s: written without error", name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written before the error", name, buf.Len())
		}
		writeReadWrite(t, []Span{sp})
	}
	writeReadWrite(t, traceFixture())
}

func TestTracerCanonicalTimeline(t *testing.T) {
	tr := NewTracer()
	// Register out of order; Spans must lay samples out by index.
	s1 := tr.Sample(1)
	s1.Span(SpanCompute, LaneCompute, 0, 0, 300, 0)
	s0 := tr.Sample(0)
	s0.Span(SpanCompute, LaneCompute, 0, 0, 100, 0)
	s0.Span(SpanEvict, LaneD2H, 0, 100, 50, 64)
	s0.Outcome(true, false)

	spans := tr.Spans()
	if tr.SampleCount() != 2 {
		t.Fatalf("SampleCount = %d", tr.SampleCount())
	}
	// sample 0: envelope [0,150) + 2 spans; sample 1 offset by 150.
	want := []Span{
		{Sample: 0, Kind: SpanSample, Lane: LaneHost, Block: -1, StartNS: 0, DurNS: 150, Mispredicted: true},
		{Sample: 0, Kind: SpanCompute, Lane: LaneCompute, Block: 0, StartNS: 0, DurNS: 100},
		{Sample: 0, Kind: SpanEvict, Lane: LaneD2H, Block: 0, StartNS: 100, DurNS: 50, Bytes: 64},
		{Sample: 1, Kind: SpanSample, Lane: LaneHost, Block: -1, StartNS: 150, DurNS: 300},
		{Sample: 1, Kind: SpanCompute, Lane: LaneCompute, Block: 0, StartNS: 150, DurNS: 300},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("canonical timeline:\ngot  %+v\nwant %+v", spans, want)
	}
}

// TestSerialTracerIgnoresSetBase: the serial-equivalent layout offsets each
// sample by the makespans before it, so a shared-clock base must not leak
// into it — Spans is the same with and without SetBase.
func TestSerialTracerIgnoresSetBase(t *testing.T) {
	record := func(baseNS int64) []Span {
		tr := NewTracer()
		for i := 0; i < 3; i++ {
			st := tr.Sample(i)
			st.SetBase(baseNS)
			st.Instant(SpanPilot)
			st.Span(SpanCompute, LaneCompute, 0, 0, int64(100*(i+1)), 0)
			st.Span(SpanEvict, LaneD2H, 0, 50, 20, 64)
		}
		return tr.Spans()
	}
	if plain, based := record(0), record(1e9); !reflect.DeepEqual(plain, based) {
		t.Fatalf("SetBase moved a serial trace:\nwithout %+v\nwith    %+v", plain, based)
	}

	// The absolute layout still honors it.
	tr := NewTracer(WithAbsoluteTime())
	st := tr.Sample(0)
	st.SetBase(1e9)
	st.Span(SpanCompute, LaneCompute, 0, 0, 100, 0)
	if got := tr.Spans()[1].StartNS; got != 1e9 {
		t.Errorf("absolute tracer span start = %d, want 1e9", got)
	}
}

func TestNilTracerAndSampleTrace(t *testing.T) {
	var tr *Tracer
	if tr.Spans() != nil || tr.SampleCount() != 0 {
		t.Error("nil tracer must report empty")
	}
	st := tr.Sample(3) // nil
	// Every method must be a no-op, not a panic — the engine calls these
	// unconditionally on untraced runs.
	st.Span(SpanCompute, LaneCompute, 0, 0, 10, 0)
	st.Retry(LaneH2D, 0, 0, 10, 0, 1)
	st.Instant(SpanPilot)
	st.Outcome(true, true)
}

func TestSortSpans(t *testing.T) {
	spans := []Span{
		{Sample: 1, StartNS: 0},
		{Sample: 0, StartNS: 50, Lane: LaneH2D},
		{Sample: 0, StartNS: 50, Lane: LaneCompute},
		{Sample: 0, StartNS: 10},
	}
	SortSpans(spans)
	order := []struct {
		sample  int
		startNS int64
		lane    string
	}{{0, 10, ""}, {0, 50, LaneCompute}, {0, 50, LaneH2D}, {1, 0, ""}}
	for i, want := range order {
		sp := spans[i]
		if sp.Sample != want.sample || sp.StartNS != want.startNS || sp.Lane != want.lane {
			t.Fatalf("spans[%d] = %+v, want %+v", i, sp, want)
		}
	}
}
