package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"informing/internal/core"
	"informing/internal/obs"
	"informing/internal/progen"
)

// referenceDecode decodes a cells body the way readJSON did before the
// codec: encoding/json with unknown fields disallowed. strict reports
// whether an accepted body breaks one of the codec's two stricter rules:
// data after the top-level value, or a key repeated in one object.
func referenceDecode(body []byte) (cells []Request, strict bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SimulateRequest
	if err := dec.Decode(&req); err != nil {
		return nil, false, err
	}
	_, tokErr := dec.Token()
	return req.Cells, tokErr != io.EOF || repeatsKey(body), nil
}

// repeatsKey reports whether an object in body's first JSON value repeats
// a key, compared as encoding/json compares keys with struct fields.
func repeatsKey(body []byte) bool {
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	var stack []frame
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if d, ok := tok.(json.Delim); ok && (d == '}' || d == ']') {
			stack = stack[:len(stack)-1]
		} else if n := len(stack); n > 0 && stack[n-1].wantKey {
			top := &stack[n-1]
			for _, k := range top.keys {
				if strings.EqualFold(k, tok.(string)) {
					return true
				}
			}
			top.keys, top.wantKey = append(top.keys, tok.(string)), false
			continue
		} else if d == '{' || d == '[' {
			stack = append(stack, frame{object: d == '{', wantKey: d == '{'})
			continue
		}
		// A value just ended.
		if len(stack) == 0 {
			return false
		}
		if top := &stack[len(stack)-1]; top.object {
			top.wantKey = true
		}
	}
}

// checkDecode holds decodeCells to the reference on body.
func checkDecode(t *testing.T, body []byte) []Request {
	t.Helper()
	want, strict, wantErr := referenceDecode(body)
	got, err := decodeCells(bytes.Clone(body))
	switch {
	case strict:
		if err == nil {
			t.Fatalf("codec accepted %q, which repeats a key or has data after the value", body)
		}
	case wantErr != nil:
		if err == nil {
			t.Fatalf("codec accepted %q, encoding/json rejects it: %v", body, wantErr)
		}
	case err != nil:
		t.Fatalf("codec rejected %q, encoding/json accepts it: %v", body, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("codec decoded %q as\n%#v\nencoding/json as\n%#v", body, got, want)
	}
	return got
}

// checkRoundTrip: the hop body of cells decodes back to cells, through the
// codec and through encoding/json.
func checkRoundTrip(t *testing.T, cells []Request) {
	t.Helper()
	body := appendCells(nil, cells)
	var ref SimulateRequest
	if err := json.Unmarshal(body, &ref); err != nil || !reflect.DeepEqual(ref.Cells, cells) {
		t.Fatalf("encoding/json reads the hop body %q as %#v (%v), want %#v", body, ref.Cells, err, cells)
	}
	back, err := decodeCells(body)
	if err != nil || !reflect.DeepEqual(back, cells) {
		t.Fatalf("codec reads the hop body back as %#v (%v), want %#v", back, err, cells)
	}
}

// FuzzDecodeCells is the codec's differential against encoding/json (the
// seed corpus covers escapes, surrogates, invalid UTF-8, folded keys,
// nulls, number edge cases, nested unknown values and both stricter
// rules). On every accepted body it also checks the hop-body round trip
// and that Canonicalize is idempotent on what was decoded.
func FuzzDecodeCells(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		cells := checkDecode(t, body)
		if len(cells) == 0 {
			return
		}
		checkRoundTrip(t, cells)
		for _, c := range cells {
			canon, err := Canonicalize(c, 0)
			if err != nil {
				continue
			}
			if again, err := Canonicalize(canon, 0); err != nil || again != canon {
				t.Fatalf("Canonicalize not idempotent on %#v: %#v, %v", canon, again, err)
			}
		}
	})
}

// TestDecodeCellsStricterRules pins the two documented differences: bodies
// encoding/json accepts and the codec rejects.
func TestDecodeCellsStricterRules(t *testing.T) {
	for _, body := range []string{
		`{"cells":[{"kind":"cell"}]}{"cells":[{"kind":"fig4"}]}`,
		`{"cells":[{"kind":"cell"}]} x`,
		`{"cells":[{"kind":"cell","kind":"fig4"}]}`,
		`{"cells":[{"kind":"cell","KIND":"cell"}]}`,
		`{"cells":[],"Cells":[{"kind":"cell"}]}`,
	} {
		_, strict, err := referenceDecode([]byte(body))
		if err != nil || !strict {
			t.Errorf("%s: encoding/json err = %v, strict = %t; want accepted and strict", body, err, strict)
		}
		if _, err := decodeCells([]byte(body)); err == nil {
			t.Errorf("%s: codec accepted it", body)
		}
	}
}

// TestRequestCodecCoversEveryField is the drift guard: every field of
// Request, found by reflection, must decode from its json tag and encode
// into the hop body. A field added without teaching wire.go fails here.
func TestRequestCodecCoversEveryField(t *testing.T) {
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		sf := rt.Field(i)
		key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		var r Request
		v := reflect.ValueOf(&r).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x\"\né")
		case reflect.Int, reflect.Int64:
			v.SetInt(-7)
		case reflect.Uint64:
			v.SetUint(7)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Errorf("field %s: the codec has no %s decoder", sf.Name, v.Kind())
			continue
		}
		body, err := json.Marshal(SimulateRequest{Cells: []Request{r}})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeCells(body); err != nil || !reflect.DeepEqual(got, []Request{r}) {
			t.Errorf("field %s (%q): codec decodes %s as %#v, %v", sf.Name, key, body, got, err)
		}
		if hop := appendCells(nil, []Request{r}); !bytes.Contains(hop, []byte(`"`+key+`":`)) {
			t.Errorf("field %s: hop body %s lacks key %q", sf.Name, hop, key)
		}
		checkRoundTrip(t, []Request{r})
	}
}

// TestHopBodyRoundTrip: every kind of canonical request survives the hop.
func TestHopBodyRoundTrip(t *testing.T) {
	good := `{"seq":0,"pc":"0x1000","disasm":"ld","fetch":0,"issue":1,"complete":2,"graduate":3,"level":1,"addr":"0x40","kind":"load","trap":false}` + "\n"
	for _, req := range []Request{
		cellReq("compress", "S1/branch", "out-of-order"),
		{Kind: KindCell, Benchmark: "tomcatv", Plan: "N", Machine: "inorder", Policy: "srrip", Scale: 3},
		{Kind: KindFig4, App: "lu", Scheme: "informing", Processors: 4, MaxRefs: 1000},
		{Kind: KindProgram, Source: "\tli r1, 10\nloop:\taddi r1, r1, -1\n\tbne r1, r0, loop\n\thalt\n", Scheme: "condcode"},
		{Kind: KindTrace, Trace: good + good, AllowSampled: true, MaxRefs: 1},
	} {
		canon, err := Canonicalize(req, 0)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		checkRoundTrip(t, []Request{canon})
	}
}

// progenUpload is the body of a trace upload as informbench's serve_upload
// sends it: a full trace of a generated program, marshalled by
// encoding/json. Seed 6 records to about 1 MB of JSONL.
func progenUpload(tb testing.TB, seed int64) []byte {
	tb.Helper()
	p := progen.Generate(seed)
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf, 1)
	if _, err := core.R10000(core.Off).WithMaxInsts(100_000_000).WithTrace(sink.Emit).Run(p.Prog); err != nil {
		tb.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(SimulateRequest{Cells: []Request{{Kind: KindTrace, Machine: MachineOOO, Trace: buf.String()}}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func TestDecodeTraceUpload(t *testing.T) {
	cells := checkDecode(t, progenUpload(t, 6))
	checkRoundTrip(t, cells)
}

// BenchmarkDecodeCells times the simulate/explain body decode: the
// encoding/json decoder the server used before the codec, and the codec
// (including the copy that stands in for reading the body), on a one-cell
// body and on a ~1 MB trace upload.
func BenchmarkDecodeCells(b *testing.B) {
	one, err := json.Marshal(SimulateRequest{Cells: []Request{cellReq("compress", "S1", "ooo")}})
	if err != nil {
		b.Fatal(err)
	}
	for _, body := range []struct {
		name string
		b    []byte
	}{{"1cell", one}, {"upload_1MB", progenUpload(b, 6)}} {
		b.Run("json/"+body.name, func(b *testing.B) {
			b.SetBytes(int64(len(body.b)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := json.NewDecoder(bytes.NewReader(body.b))
				dec.DisallowUnknownFields()
				var req SimulateRequest
				if err := dec.Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("codec/"+body.name, func(b *testing.B) {
			b.SetBytes(int64(len(body.b)))
			b.ReportAllocs()
			buf := make([]byte, len(body.b))
			for i := 0; i < b.N; i++ {
				copy(buf, body.b)
				if _, err := decodeCells(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
