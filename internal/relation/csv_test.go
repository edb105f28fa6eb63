package relation

import (
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func TestFromCSVTypes(t *testing.T) {
	data := "id,score,name\n1,2.5,ada\n2,,grace\n,3,\n"
	r, err := FromCSV("t", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("rows = %d", r.Len())
	}
	id := r.Tuple(0)[r.Schema().IndexOf(schema.Attr("t", "id"))]
	if id.Kind() != value.KindInt || id.Int() != 1 {
		t.Errorf("id[0] = %v (%v)", id, id.Kind())
	}
	score := r.Tuple(0)[r.Schema().IndexOf(schema.Attr("t", "score"))]
	if score.Kind() != value.KindFloat || score.Float() != 2.5 {
		t.Errorf("score[0] = %v", score)
	}
	if !r.Tuple(1)[r.Schema().IndexOf(schema.Attr("t", "score"))].IsNull() {
		t.Error("empty cell must be NULL")
	}
	if !r.Tuple(2)[r.Schema().IndexOf(schema.Attr("t", "id"))].IsNull() {
		t.Error("empty id must be NULL")
	}
	name := r.Tuple(0)[r.Schema().IndexOf(schema.Attr("t", "name"))]
	if name.Kind() != value.KindString || name.Str() != "ada" {
		t.Errorf("name[0] = %v", name)
	}
}

func TestFromCSVMixedBecomesString(t *testing.T) {
	r, err := FromCSV("t", strings.NewReader("v\n1\nx\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Tuple(0)[r.Schema().IndexOf(schema.Attr("t", "v"))]; got.Kind() != value.KindString {
		t.Errorf("mixed column must fall back to string, got %v", got.Kind())
	}
}

func TestFromCSVErrors(t *testing.T) {
	if _, err := FromCSV("t", strings.NewReader("")); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := FromCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged row must fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := NewBuilder("t", "a", "b").
		Row(value.NewInt(1), value.NewString("x")).
		Row(value.Null, value.NewString("y,z")).
		Relation()
	back, err := FromCSV("t", strings.NewReader("a,b\n1,x\n,\"y,z\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	// Compare real columns only (row ids are re-assigned).
	attrs := []schema.Attribute{schema.Attr("t", "a"), schema.Attr("t", "b")}
	if !r.Project(attrs, false).EqualAsMultisets(back.Project(attrs, false)) {
		t.Fatalf("round trip changed data:\n%s\nvs\n%s", r, back)
	}
}
