package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// tiny is a five-record dataset small enough to count by hand. Record 4
// repeats item 2: it counts once per item but three times toward length.
const tiny = "0 1 2\n1 2\n2 3 4 5\n1\n0 2 2\n"

func TestAnswersMatchHandCounts(t *testing.T) {
	d, err := ParseFIMI([]byte(tiny))
	if err != nil {
		t.Fatal(err)
	}
	filterSpec := func(contains []int32, minLen, maxLen int) *Spec { return filter(contains, minLen, maxLen) }
	cases := []struct {
		name string
		spec *Spec
		want []float64
	}{
		{"all_items", all(), []float64{2, 3, 4, 1, 1, 1}},
		{"item_count", itemCount([]int32{2, 5, 0, 9}), []float64{4, 1, 2, 0}},
		{"filter contains", filterSpec([]int32{2}, 0, 0), []float64{2, 2, 4, 1, 1, 1}},
		{"filter min_len", filterSpec(nil, 3, 0), []float64{2, 1, 3, 1, 1, 1}},
		{"filter max_len", filterSpec(nil, 0, 2), []float64{0, 2, 1, 0, 0, 0}},
		{"filter contains+min_len", filterSpec([]int32{1, 2}, 3, 0), []float64{1, 1, 1, 0, 0, 0}},
		{"threshold min", &Spec{Kind: KindThreshold, MinCount: 2, Of: []*Spec{all()}}, []float64{2, 3, 4, 0, 0, 0}},
		{"threshold min+max", &Spec{Kind: KindThreshold, MinCount: 2, MaxCount: 3, Of: []*Spec{all()}}, []float64{2, 3, 0, 0, 0, 0}},
		{"union", &Spec{Kind: KindUnion, Of: []*Spec{filterSpec(nil, 0, 2), filterSpec(nil, 3, 0)}}, []float64{2, 2, 3, 1, 1, 1}},
		{"intersect", &Spec{Kind: KindIntersect, Of: []*Spec{filterSpec([]int32{2}, 0, 0), filterSpec(nil, 3, 0)}}, []float64{2, 1, 3, 1, 1, 1}},
	}
	for _, c := range cases {
		got, err := Answers(d.Records, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := Answers(d.Records, &Spec{Kind: "minus"}); err == nil {
		t.Error("the reference evaluated a kind the workloads never send")
	}
}

func TestFIMIRoundTrip(t *testing.T) {
	d, err := ParseFIMI([]byte(tiny + "\n  \n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(FIMI(d.Records)); got != tiny {
		t.Errorf("round trip gave %q", got)
	}
	if _, err := ParseFIMI([]byte("1 -2\n")); err == nil {
		t.Error("negative item accepted")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {25, 20}, {50, 35}, {75, 40}, {100, 50}, {40, 29}, {99, 49.6},
	} {
		if got := Percentile(xs, c.p); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if Median([]float64{4, 1, 3, 2}) != 2.5 || Median(nil) != 0 || Percentile([]float64{7}, 99) != 7 {
		t.Error("median of even, empty or single-sample input is wrong")
	}
	if !reflect.DeepEqual(xs, []float64{15, 20, 35, 40, 50}) {
		t.Error("Percentile modified its input")
	}
}

// synthetic builds inputs for every dataset and pool of a workload: small
// Zipf-ish records, enough for the generator's rank and length statistics.
func synthetic(t *testing.T, name string) map[string]*Data {
	inputs, err := Inputs(name)
	if err != nil {
		t.Fatal(err)
	}
	data := map[string]*Data{}
	for k, in := range inputs {
		var sb strings.Builder
		for r := 0; r < 3000; r++ {
			n := 1 + (r*7+k)%9
			for j := 0; j < n; j++ {
				if j > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprint(&sb, (j*j+r*(j+1))%(200+k))
			}
			sb.WriteByte('\n')
		}
		d, err := ParseFIMI([]byte(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		data[in.Name] = d
	}
	return data
}

func TestBuildIsSeededAndSendsNoUnboundedSpecs(t *testing.T) {
	for _, name := range Names {
		data := synthetic(t, name)
		a, err := Build(name, 7, 1, data)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Build(name, 7, 1, data)
		c, _ := Build(name, 8, 1, data)
		if len(a.Ops) != len(b.Ops) || len(a.Ops) <= a.Warmup {
			t.Fatalf("%s: %d ops vs %d, warm-up %d", name, len(a.Ops), len(b.Ops), a.Warmup)
		}
		same, probes, appends := true, 0, 0
		for i := range a.Ops {
			if !bytes.Equal(a.Ops[i].Body, b.Ops[i].Body) || a.Ops[i].Path != b.Ops[i].Path {
				t.Fatalf("%s: op %d differs under the same seed", name, i)
			}
			if i < len(c.Ops) && !bytes.Equal(a.Ops[i].Body, c.Ops[i].Body) {
				same = false
			}
			if bytes.Contains(a.Ops[i].Body, []byte(`"minus"`)) || bytes.Contains(a.Ops[i].Body, []byte(`"join"`)) {
				t.Fatalf("%s: op %d sends a minus or join spec", name, i)
			}
			if a.Ops[i].Probe {
				probes++
			}
			if a.Ops[i].Class == ClassAppend {
				appends++
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
		if probes == 0 || appends == 0 {
			t.Errorf("%s: %d probes and %d appends in %d ops", name, probes, appends, len(a.Ops))
		}
		subscribed := 0
		for _, m := range a.Monitors {
			if m.Subscribe {
				subscribed++
			}
		}
		if subscribed != 1 {
			t.Errorf("%s: %d subscribed monitors, want 1", name, subscribed)
		}
	}
}
