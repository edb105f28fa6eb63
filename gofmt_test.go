package reorder

import (
	"bytes"
	"go/format"
	"strings"
	"testing"
)

// TestGofmt fails on a Go file of the module or of bench/ that gofmt
// would rewrite, so formatting drift fails go test ./... and not only
// make fmt.
func TestGofmt(t *testing.T) {
	tr := loadTree(t, ".")
	for _, p := range sortedKeys(tr) {
		if !strings.HasSuffix(p, ".go") {
			continue
		}
		src := []byte(tr[p])
		out, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", p, p)
		}
	}
}
