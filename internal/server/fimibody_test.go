package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/freegap/freegap/internal/dataset"
)

// fuzzFIMILimits keeps fuzzed parses small.
var fuzzFIMILimits = dataset.FIMILimits{MaxRecords: 64, MaxItemID: 1 << 10}

// referenceDecodeFIMI is the decode of the upload and append bodies before
// they were streamed: encoding/json reads the whole body into dst, the More
// check rejects trailing data, and a non-empty fimi string is parsed in one
// piece.
func referenceDecodeFIMI(body string, dst any, fimi func() string) (*dataset.Transactions, error) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("request body holds more than one JSON value")
	}
	if text := fimi(); text != "" {
		return dataset.ReadFIMILimited(strings.NewReader(text), "upload", fuzzFIMILimits)
	}
	return nil, nil
}

// streamDecodeFIMI runs decodeFIMIJSON over body with a read buffer of size
// bytes, parsing a non-empty fimi string as the handlers do.
func streamDecodeFIMI(body string, size int, dst any) (db *dataset.Transactions, err error) {
	err = decodeFIMIJSON(bufio.NewReaderSize(strings.NewReader(body), size), dst, func(r io.Reader) (err error) {
		db, err = dataset.ReadFIMILimited(r, "upload", fuzzFIMILimits)
		return err
	})
	return db, err
}

// FuzzDecodeFIMIBody sends arbitrary bodies through the streaming decoder
// and through referenceDecodeFIMI, as upload and as append bodies, with the
// smallest read buffer and the served one. Both must accept or reject
// alike, and an accepted body must give the same fields and the same
// records. The one allowed difference: the streaming decoder rejects a
// second fimi member, which encoding/json would keep in place of the first.
func FuzzDecodeFIMIBody(f *testing.F) {
	for _, seed := range []string{
		`{"name":"a","fimi":"0 1\n1 2\n"}`,
		`{"fimi":"0 1\n1 2\n","name":"a"}`,
		`{"name":"a","fimi":"0 1\r\n\r\n2\n"}`,
		`{"name":"a","fimi":"1 2 3"}`,
		`{"name":"a","fimi":"😀 1\n"}`,
		`{"name":"a","fimi":"\ud83d\ude00 1\n"}`,
		`{"name":"a","fimi":"\ud83d 1\n"}`,
		`{"name":"a","fimi":"\u0031\u0020\u0032\u000a\u0033\u000D\u000A"}`,
		`{"name":"a","fimi":"1\u00a02\u20283\u0085\n"}`,
		`{"name":"a","fimi":"\t1\f2\b\n"}`,
		`{"name":"a","fimi":"\ude00\ud83d\n"}`,
		`{"name":"a","fimi":"1\/2"}`,
		`{"name":"a","fimi":"12\n"}`,
		`{"name":"a","fimi":null,"synthetic":{"kind":"bmspos","scale":100}}`,
		`{"name":"a","fimi":"","synthetic":{"kind":"bmspos"}}`,
		`{"NAME":"a","FIMI":"1\n","Synthetic":null}`,
		`{"name":"a","FiMI":"1\n"}`,
		`{"name":"a","fimi":"1\n","fimi":"2\n"}`,
		`{"name":"a","fimi":"1\n","FIMI":"2\n"}`,
		`{"name":"a","fimi":"1\n"} `,
		`{"name":"a","fimi":"1\n"}]`,
		`{"name":"a","fimi":"1\n"}{}`,
		`{"name":"a","fimi":"1\n"} x`,
		`{"name":"a","fimi":"1\n","extra":1}`,
		`{"name":"a","fimi":1}`,
		`{"name":"a","fimi":"1`,
		`{"name":"a","fimi":"1\x"}`,
		"{\"name\":\"a\",\"fimi\":\"1\n\"}",
		"{\"name\":\"a\",\"fimi\":\"1 \xff\\n\"}",
		`{"name":"a\"b","fimi":"1\n"}`,
		`{"synthetic":{"kind":"kosarak","seed":3},"name":"k"}`,
		`{"name":["a"],"fimi":"1\n"}`,
		`{}`,
		`null`,
		` null `,
		`nul`,
		`[]`,
		`"fimi"`,
		``,
		`{"fimi":"-1\n"}`,
		`{"fimi":"+5 007\n"}`,
		`{"fimi":"99999999999\n"}`,
		`{"fimi":"\n\n"}`,
	} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, body string, upload bool) {
		for _, size := range []int{16, 32 << 10} {
			if upload {
				var want, got DatasetUploadRequest
				wdb, werr := referenceDecodeFIMI(body, &want, func() string { return want.FIMI })
				db, err := streamDecodeFIMI(body, size, &got)
				want.FIMI = ""
				sameDecode(t, body, size, &got, db, err, &want, wdb, werr)
			} else {
				var want, got DatasetAppendRequest
				wdb, werr := referenceDecodeFIMI(body, &want, func() string { return want.FIMI })
				db, err := streamDecodeFIMI(body, size, &got)
				want.FIMI = ""
				sameDecode(t, body, size, &got, db, err, &want, wdb, werr)
			}
		}
	})
}

// sameDecode fails t unless the streaming decode (got, db, err) matches the
// reference (want, wdb, werr), up to the duplicate-fimi rejection.
func sameDecode(t *testing.T, body string, size int, got any, db *dataset.Transactions, err error,
	want any, wdb *dataset.Transactions, werr error) {
	t.Helper()
	if err != nil && werr == nil && fimiMembers(body) > 1 {
		return
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("body %q, buffer %d: streaming error %v, reference error %v", body, size, err, werr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q, buffer %d: fields %+v, reference %+v", body, size, got, want)
	}
	if (db == nil) != (wdb == nil) {
		t.Fatalf("body %q, buffer %d: parsed %v, reference parsed %v", body, size, db != nil, wdb != nil)
	}
	if db == nil {
		return
	}
	if db.NumRecords() != wdb.NumRecords() || db.NumItems() != wdb.NumItems() {
		t.Fatalf("body %q: %d records, %d items; reference %d, %d", body, db.NumRecords(), db.NumItems(), wdb.NumRecords(), wdb.NumItems())
	}
	for i := 0; i < db.NumRecords(); i++ {
		if !slices.Equal(db.Record(i), wdb.Record(i)) {
			t.Fatalf("body %q: record %d = %v, reference %v", body, i, db.Record(i), wdb.Record(i))
		}
	}
}

// fimiMembers counts the top-level members of a JSON object body whose key
// encoding/json matches to the fimi field.
func fimiMembers(body string) int {
	dec := json.NewDecoder(strings.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return 0
	}
	n := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return n
		}
		if key, ok := tok.(string); ok && strings.EqualFold(key, "fimi") {
			n++
		}
		var value json.RawMessage
		if dec.Decode(&value) != nil {
			return n
		}
	}
	return n
}

func postBody(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

// datasetFiles lists the file names in a state directory's datasets/.
func datasetFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "datasets"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDatasetUploadStreamsIntoBlob: a persistent upload's blob is the
// uploaded FIMI text itself (line ends, blank lines and escapes decoded, not
// re-serialized), and it restores to the same dataset.
func TestDatasetUploadStreamsIntoBlob(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, 10)
	resp, data := postBody(t, ts.URL+"/v1/datasets", `{"fimi":"0 1 2\r\n\r\n1  2\n7\n","name":"raw"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, body = %s", resp.StatusCode, data)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "datasets", "raw.fimi"))
	if err != nil || string(blob) != "0 1 2\r\n\r\n1  2\n7\n" {
		t.Fatalf("blob = %q, %v; want the uploaded text", blob, err)
	}
	if files := datasetFiles(t, dir); !slices.Equal(files, []string{"raw.fimi"}) {
		t.Errorf("datasets/ holds %v, want only raw.fimi", files)
	}
	ts.Close()
	s.Close()

	s2, ts2 := newPersistentServer(t, dir, 10)
	defer s2.Close()
	resp, data = getJSON(t, ts2.URL+"/v1/datasets/raw")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored status = %d, body = %s", resp.StatusCode, data)
	}
	if info := decodeInto[DatasetInfo](t, data); info.Records != 3 || info.Items != 8 || info.CountScans != 1 {
		t.Errorf("restored info = %+v, want 3 records, 8 items, 1 count scan", info)
	}
}

// TestDatasetUploadDuplicateFIMIKey: encoding/json would keep the last of
// two fimi members, but both would have streamed into the blob, so the
// body is rejected, whatever the case of the keys; nothing is left behind.
func TestDatasetUploadDuplicateFIMIKey(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, 10)
	defer s.Close()
	for _, body := range []string{
		`{"name":"dup","fimi":"0 1\n","fimi":"2\n"}`,
		`{"name":"dup","fimi":"0 1\n","FIMI":"2\n"}`,
		`{"name":"dup","fimi":null,"Fimi":"2\n"}`,
	} {
		if resp, data := postBody(t, ts.URL+"/v1/datasets", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body = %s", body, resp.StatusCode, data)
		}
	}
	if resp, data := postBody(t, ts.URL+"/v1/datasets/dup/append", `{"fimi":"1\n","fimi":"2\n"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("append: status = %d, body = %s", resp.StatusCode, data)
	}
	if files := datasetFiles(t, dir); len(files) != 0 {
		t.Errorf("datasets/ holds %v after rejected uploads", files)
	}
}

// TestDatasetUploadConcurrentSameName: two uploads racing for one name end
// with one 201 and one 409, one blob, and no temp left behind.
func TestDatasetUploadConcurrentSameName(t *testing.T) {
	dir := t.TempDir()
	s, ts := newPersistentServer(t, dir, 10)
	defer s.Close()
	body := `{"name":"race","fimi":"` + strings.Repeat(`0 1 2\n3 4\n`, 2000) + `"}`
	codes := make([]int, 2)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	slices.Sort(codes)
	if !slices.Equal(codes, []int{http.StatusCreated, http.StatusConflict}) {
		t.Errorf("statuses = %v, want one 201 and one 409", codes)
	}
	if files := datasetFiles(t, dir); !slices.Equal(files, []string{"race.fimi"}) {
		t.Errorf("datasets/ holds %v, want only race.fimi", files)
	}
	want := bytes.Repeat([]byte("0 1 2\n3 4\n"), 2000)
	if got, err := os.ReadFile(filepath.Join(dir, "datasets", "race.fimi")); err != nil || !bytes.Equal(got, want) {
		t.Errorf("blob holds %d bytes (%v), want the %d uploaded", len(got), err, len(want))
	}
}

// TestDatasetUploadRejectsLeaveNoTemp: an upload rejected after its text
// streamed into a blob temp — a FIMI error, a bad name, a conflict with
// synthetic, the body cap — removes the temp.
func TestDatasetUploadRejectsLeaveNoTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{TenantBudget: 10, Seed: 42, Workers: 1, Persist: openLog(t, dir), MaxBodyBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, c := range []struct {
		body string
		want int
	}{
		{`{"name":"bad","fimi":"0 1\nx\n"}`, http.StatusBadRequest},
		{`{"fimi":"0 1\n","name":"Bad Name"}`, http.StatusBadRequest},
		{`{"fimi":"0 1\n","name":"both","synthetic":{"kind":"bmspos"}}`, http.StatusBadRequest},
		{`{"fimi":"0 1\n","name":"extra","bogus":true}`, http.StatusBadRequest},
		{`{"fimi":"0 1\n","name":"trailing"} 7`, http.StatusBadRequest},
		{`{"name":"big","fimi":"` + strings.Repeat(`0 1 2\n`, 1000) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"name":"unterminated","fimi":"0 1\n`, http.StatusBadRequest},
		{`{"name":"badescape","fimi":"0 1\q"}`, http.StatusBadRequest},
		{`{"name":"control","fimi":"0 1` + "\n" + `"}`, http.StatusBadRequest},
		{`{"name":"fimitype","fimi":["0 1"]}`, http.StatusBadRequest},
		{`{"name":"ok","fimi":"0 1\n"}`, http.StatusCreated},
		{`{"name":"ok","fimi":"0 1\n"}` + strings.Repeat(" ", 8), http.StatusConflict},
		{`{"name":"synthetic","fimi":null,"synthetic":{"kind":"bmspos","scale":1000}}`, http.StatusCreated},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/datasets", strings.NewReader(c.body)))
		if w.Code != c.want {
			t.Errorf("%.80s: status = %d, want %d (body %s)", c.body, w.Code, c.want, w.Body)
		}
	}
	if files := datasetFiles(t, dir); !slices.Equal(files, []string{"ok.fimi"}) {
		t.Errorf("datasets/ holds %v, want only ok.fimi", files)
	}
}
