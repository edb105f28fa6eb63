package executor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/batch"
	"repro/internal/expr"
	"repro/internal/guard"
	"repro/internal/plan"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// This file implements the out-of-core leg of the grace hash join:
// when the build side's modeled resident footprint would trip the
// byte budget, both inputs are hash-partitioned into temp files and
// each partition pair is joined independently — in memory when it
// fits the remaining headroom, recursively re-partitioned on the next
// 4 hash bits when it does not. Because partitioning is by join-key
// hash, all potential matches of a tuple land in the same partition
// at every level, so each partition pair joins with the original join
// kind and its outer padding stays correct; NULL-key tuples (which
// match nothing under null in-tolerant predicates) are set aside
// before the first write and padded once at the end. Partition files
// are processed in ascending partition index with rows in input
// order, so spilled execution is deterministic and multiset-equal to
// the in-memory join.
//
// Each partition pair is joined by vecJoin on an engine with no
// Adapt — the in-memory join's own kernel, which neither swaps nor
// spills again. Budget accounting is therefore exactly-once, in two
// currencies that never overlap: join output rows/bytes are charged
// cumulatively by the per-partition probes (each output row is emitted
// by exactly one partition), while transient resident state — a loaded
// partition pair, plus the build table vecJoin reserves itself — is
// reserved via ReserveBytes and released when the partition is
// dropped. Spilled file bytes are deliberately not charged against
// MaxBytes (they are on disk, which is the point); they are surfaced
// on the exec.spill.bytes counter instead.

const (
	// spillFanout is the partition count per level: 2^spillHashBits.
	spillFanout   = 16
	spillHashBits = 4
	// maxSpillDepth bounds recursion. Each level consumes
	// spillHashBits fresh hash bits, so 8 levels consume 32 of the 64
	// key-hash bits — enough to cut any realistically skewed input,
	// while guaranteeing termination when a single key dominates (a
	// partition of identical keys never shrinks; recursing on it would
	// re-create itself forever). At the bound the partition is joined
	// in memory regardless, surfacing a typed budget trip if it truly
	// does not fit.
	maxSpillDepth = 8
	// spillMinRows is the combined partition size below which
	// re-partitioning cannot pay for itself: such partitions are
	// joined in memory (attempting the reservation) instead of fanned
	// into ever-smaller files.
	spillMinRows = 128
)

// spillValueWidth mirrors guard's per-value width estimate for
// resident-footprint modeling.
const spillValueWidth = 32

// estBytes models the resident footprint of rows×width values.
func estBytes(rows, width int) int64 {
	return int64(rows) * int64(width) * spillValueWidth
}

// spillOptions configure one grace join.
type spillOptions struct {
	// Dir is where partition files are created (a fresh directory
	// under os.TempDir() when empty). The directory's spill files are
	// removed as they are consumed and the run's subdirectory is
	// removed on return.
	Dir string
	// MaxResidentBytes caps the modeled resident footprint of a
	// partition pair joined in memory when no byte-limited budget is
	// supplied; 0 means unlimited (every level-0 partition joins in
	// memory — the files are still written and read back, which is
	// what the equivalence tests exercise).
	MaxResidentBytes int64
}

// graceJoin joins two materialized relations with the spilling grace
// hash join, metering exec.spill.* into e.reg. The result is
// multiset-equal to the in-memory join for every join kind. vecJoin
// escalates only joins with an equi conjunct; a predicate without one
// would hash every row to the same partition, which joins in memory
// once re-partitioning fails to split it.
func (e *vecEngine) graceJoin(kind plan.JoinKind, pred expr.Pred, l, r *relation.Relation, st *joinProbe, opts spillOptions) (*relation.Relation, error) {
	ls, rs := l.Schema(), r.Schema()
	keys, _ := splitEqui(pred, ls, rs)
	li := make([]int, len(keys))
	ri := make([]int, len(keys))
	for i, k := range keys {
		li[i], ri[i] = k.li, k.ri
	}
	dir, err := os.MkdirTemp(opts.Dir, "spilljoin-")
	if err != nil {
		return nil, fmt.Errorf("executor: spill dir: %w", err)
	}
	defer os.RemoveAll(dir)
	e.reg.Counter("exec.spill.joins").Inc()

	b := e.b
	sp := &spiller{
		kind: kind, pred: pred,
		li: li, ri: ri,
		lschema: ls, rschema: rs,
		dir: dir, st: st,
		eng:         &vecEngine{b: b, batch: e.batch, reg: e.reg},
		maxResident: opts.MaxResidentBytes,
	}

	// Level 0: scatter both in-memory inputs into partition files,
	// setting NULL-key tuples aside for top-level padding.
	lparts, lnull, err := sp.writeRelation(l, li, 0)
	if err != nil {
		return nil, err
	}
	rparts, rnull, err := sp.writeRelation(r, ri, 0)
	if err != nil {
		return nil, err
	}

	nl, nr := ls.Len(), rs.Len()
	out := relation.New(ls.Concat(rs))
	for p := 0; p < spillFanout; p++ {
		if err := b.Err(); err != nil {
			return nil, err
		}
		part, err := sp.joinPair(lparts[p], rparts[p], 0, false)
		if err != nil {
			return nil, err
		}
		if part != nil {
			out.AppendAll(part.Tuples())
		}
	}

	// NULL-key padding, once, at the top: these tuples were never
	// written to any partition.
	pads := 0
	if kind == plan.LeftJoin || kind == plan.FullJoin {
		for _, i := range lnull {
			out.Append(padded(l.Tuple(i), nil, nl, nr))
			pads++
		}
	}
	if kind == plan.RightJoin || kind == plan.FullJoin {
		for _, j := range rnull {
			out.Append(padded(nil, r.Tuple(j), nl, nr))
			pads++
		}
	}
	if st != nil {
		st.NullPadded += pads
	}
	if err := b.ChargeOut(pads, nl+nr); err != nil {
		return nil, err
	}
	return out, nil
}

// spiller carries the per-join state of one spilled execution.
type spiller struct {
	kind        plan.JoinKind
	pred        expr.Pred
	li, ri      []int
	lschema     *schema.Schema
	rschema     *schema.Schema
	dir         string
	st          *joinProbe
	eng         *vecEngine // joins a partition pair: no Adapt, no annotations
	maxResident int64
	nfile       int
}

// spillFile is one written partition side: its path (empty for an
// empty partition — no file is created) and row/byte totals.
type spillFile struct {
	path  string
	rows  int
	bytes int64
}

// joinPair joins one partition pair at the given level: in memory
// when the modeled resident footprint fits the headroom (or when
// force, the depth bound, or the small-partition floor applies),
// recursively re-partitioned otherwise. The consumed partition files
// are removed either way, bounding disk usage to the live frontier.
func (sp *spiller) joinPair(lf, rf spillFile, level int, force bool) (*relation.Relation, error) {
	defer func() {
		if lf.path != "" {
			os.Remove(lf.path)
		}
		if rf.path != "" {
			os.Remove(rf.path)
		}
	}()
	if lf.rows == 0 && rf.rows == 0 {
		return nil, nil
	}
	// An empty non-preserved side means no output from this partition;
	// outer kinds still need the preserved side's padding, which the
	// in-memory join produces from tiny inputs, so fall through.
	nl, nr := sp.lschema.Len(), sp.rschema.Len()
	// Resident model for the in-memory attempt: both loaded partitions
	// plus the build table vecJoin will reserve over the right side.
	resident := estBytes(lf.rows, nl) + 2*estBytes(rf.rows, nr)
	fits := true
	if free, limited := sp.eng.b.BytesFree(); limited {
		fits = resident <= free/2 // keep half the headroom for the output
	} else if sp.maxResident > 0 {
		fits = resident <= sp.maxResident
	}
	if !fits && !force && level+1 < maxSpillDepth && lf.rows+rf.rows > spillMinRows {
		return sp.recurse(lf, rf, level)
	}
	lrel, err := sp.readFile(lf, sp.lschema)
	if err != nil {
		return nil, err
	}
	rrel, err := sp.readFile(rf, sp.rschema)
	if err != nil {
		return nil, err
	}
	loaded := estBytes(lf.rows, nl) + estBytes(rf.rows, nr)
	if err := sp.eng.b.ReserveBytes(loaded); err != nil {
		return nil, err
	}
	defer sp.eng.b.ReleaseBytes(loaded)
	out, err := sp.eng.vecJoin(sp.kind, sp.pred, batch.FromRelation(lrel), batch.FromRelation(rrel), sp.st)
	if err != nil {
		return nil, err
	}
	return out.ToRelation(), nil
}

// recurse re-partitions one oversized pair on the next 4 hash bits
// and joins the children in partition order. A child that did not
// shrink (every row shares the parent's hash bits at this level —
// one dominant key) is forced in memory: more levels cannot split it.
func (sp *spiller) recurse(lf, rf spillFile, level int) (*relation.Relation, error) {
	sp.eng.reg.Counter("exec.spill.recursions").Inc()
	if sp.st != nil {
		sp.st.SpillRecursions++
	}
	lparts, err := sp.repartition(lf, sp.lschema, sp.li, level+1)
	if err != nil {
		return nil, err
	}
	rparts, err := sp.repartition(rf, sp.rschema, sp.ri, level+1)
	if err != nil {
		return nil, err
	}
	out := relation.New(sp.lschema.Concat(sp.rschema))
	for p := 0; p < spillFanout; p++ {
		if err := sp.eng.b.Err(); err != nil {
			return nil, err
		}
		force := lparts[p].rows == lf.rows && rparts[p].rows == rf.rows
		part, err := sp.joinPair(lparts[p], rparts[p], level+1, force)
		if err != nil {
			return nil, err
		}
		if part != nil {
			out.AppendAll(part.Tuples())
		}
	}
	return out, nil
}

// partWriters is one level's fan-out of partition writers for one
// side, created lazily so empty partitions cost no file.
type partWriters struct {
	sp      *spiller
	files   [spillFanout]spillFile
	fs      [spillFanout]*os.File
	ws      [spillFanout]*bufio.Writer
	scratch []byte
}

func (pw *partWriters) write(p int, t relation.Tuple) error {
	if pw.ws[p] == nil {
		pw.sp.nfile++
		path := filepath.Join(pw.sp.dir, fmt.Sprintf("part-%06d", pw.sp.nfile))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("executor: spill create: %w", err)
		}
		pw.fs[p] = f
		pw.ws[p] = bufio.NewWriterSize(f, 1<<16)
		pw.files[p].path = path
	}
	pw.scratch = encodeTuple(pw.scratch[:0], t)
	if _, err := pw.ws[p].Write(pw.scratch); err != nil {
		return fmt.Errorf("executor: spill write: %w", err)
	}
	pw.files[p].rows++
	pw.files[p].bytes += int64(len(pw.scratch))
	return nil
}

// close flushes and closes every written partition, firing the spill
// write fault point per file and folding totals into the counters.
func (pw *partWriters) close() ([spillFanout]spillFile, error) {
	var parts, bytes int64
	for p := 0; p < spillFanout; p++ {
		if pw.ws[p] == nil {
			continue
		}
		if err := guard.Hit(guard.PointSpillWrite); err != nil {
			pw.abort()
			return pw.files, err
		}
		if err := pw.ws[p].Flush(); err != nil {
			pw.abort()
			return pw.files, fmt.Errorf("executor: spill flush: %w", err)
		}
		if err := pw.fs[p].Close(); err != nil {
			pw.abort()
			return pw.files, fmt.Errorf("executor: spill close: %w", err)
		}
		pw.fs[p], pw.ws[p] = nil, nil
		parts++
		bytes += pw.files[p].bytes
	}
	pw.sp.eng.reg.Counter("exec.spill.partitions").Add(parts)
	pw.sp.eng.reg.Counter("exec.spill.bytes").Add(bytes)
	if pw.sp.st != nil {
		pw.sp.st.SpillParts += int(parts)
		pw.sp.st.SpillBytes += bytes
	}
	return pw.files, nil
}

// abort closes any still-open files (errors ignored; the caller is
// already failing and the run directory is removed wholesale).
func (pw *partWriters) abort() {
	for p := 0; p < spillFanout; p++ {
		if pw.fs[p] != nil {
			pw.fs[p].Close()
			pw.fs[p], pw.ws[p] = nil, nil
		}
	}
}

// writeRelation scatters an in-memory relation into level-0 partition
// files by join-key hash; NULL-key row indices are returned for
// top-level padding instead of being written.
func (sp *spiller) writeRelation(r *relation.Relation, idx []int, level int) ([spillFanout]spillFile, []int, error) {
	pw := &partWriters{sp: sp}
	var nullKeys []int
	shift := uint(spillHashBits * level)
	for i, t := range r.Tuples() {
		h, ok := t.HashOn(idx)
		if !ok {
			nullKeys = append(nullKeys, i)
			continue
		}
		p := int((h >> shift) & (spillFanout - 1))
		if err := pw.write(p, t); err != nil {
			pw.abort()
			return pw.files, nil, err
		}
	}
	files, err := pw.close()
	return files, nullKeys, err
}

// repartition streams one spilled partition into the next level's
// fan-out without materializing it: read a tuple, hash, route. The
// source file is removed by the caller's joinPair defer.
func (sp *spiller) repartition(f spillFile, s *schema.Schema, idx []int, level int) ([spillFanout]spillFile, error) {
	pw := &partWriters{sp: sp}
	if f.rows == 0 {
		return pw.close()
	}
	src, err := sp.openFile(f)
	if err != nil {
		return pw.files, err
	}
	defer src.Close()
	rd := bufio.NewReaderSize(src, 1<<16)
	width := s.Len()
	shift := uint(spillHashBits * level)
	for n := 0; n < f.rows; n++ {
		t, err := decodeTuple(rd, width)
		if err != nil {
			pw.abort()
			return pw.files, fmt.Errorf("executor: spill decode %s: %w", f.path, err)
		}
		h, ok := t.HashOn(idx)
		if !ok {
			// NULL keys were filtered at level 0; a NULL here means the
			// file is corrupt.
			pw.abort()
			return pw.files, fmt.Errorf("executor: spill decode %s: unexpected NULL key", f.path)
		}
		if err := pw.write(int((h>>shift)&(spillFanout-1)), t); err != nil {
			pw.abort()
			return pw.files, err
		}
	}
	return pw.close()
}

// openFile opens a spill file for reading, firing the read fault
// point.
func (sp *spiller) openFile(f spillFile) (*os.File, error) {
	if err := guard.Hit(guard.PointSpillRead); err != nil {
		return nil, err
	}
	src, err := os.Open(f.path)
	if err != nil {
		return nil, fmt.Errorf("executor: spill open: %w", err)
	}
	return src, nil
}

// readFile materializes one spilled partition back into a relation,
// its tuples carved from one slab.
func (sp *spiller) readFile(f spillFile, s *schema.Schema) (*relation.Relation, error) {
	out := relation.New(s)
	if f.rows == 0 {
		return out, nil
	}
	src, err := sp.openFile(f)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	rd := bufio.NewReaderSize(src, 1<<16)
	width := s.Len()
	slab := make([]value.Value, f.rows*width)
	for n := 0; n < f.rows; n++ {
		t, err := decodeTupleInto(rd, slab[n*width:(n+1)*width:(n+1)*width])
		if err != nil {
			return nil, fmt.Errorf("executor: spill decode %s: %w", f.path, err)
		}
		out.Append(t)
	}
	return out, nil
}

// Spill file format: tuples back to back, each value as a kind byte
// followed by its payload — INT and FLOAT as 8 little-endian bytes,
// STRING as a uvarint length plus bytes, BOOL as one byte, NULL as
// nothing. Row counts live in the in-memory spillFile record, so no
// framing or trailer is needed.
const (
	spillKindNull byte = iota
	spillKindInt
	spillKindFloat
	spillKindStr
	spillKindBool
)

func encodeTuple(buf []byte, t relation.Tuple) []byte {
	for _, v := range t {
		switch v.Kind() {
		case value.KindNull:
			buf = append(buf, spillKindNull)
		case value.KindInt:
			buf = append(buf, spillKindInt)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
		case value.KindFloat:
			buf = append(buf, spillKindFloat)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
		case value.KindString:
			s := v.Str()
			buf = append(buf, spillKindStr)
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case value.KindBool:
			buf = append(buf, spillKindBool)
			if v.Bool() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf
}

func decodeTuple(rd *bufio.Reader, width int) (relation.Tuple, error) {
	return decodeTupleInto(rd, make(relation.Tuple, width))
}

func decodeTupleInto(rd *bufio.Reader, t relation.Tuple) (relation.Tuple, error) {
	var b8 [8]byte
	for i := range t {
		kind, err := rd.ReadByte()
		if err != nil {
			return nil, err
		}
		switch kind {
		case spillKindNull:
			t[i] = value.Null
		case spillKindInt:
			if _, err := readFull(rd, b8[:]); err != nil {
				return nil, err
			}
			t[i] = value.NewInt(int64(binary.LittleEndian.Uint64(b8[:])))
		case spillKindFloat:
			if _, err := readFull(rd, b8[:]); err != nil {
				return nil, err
			}
			t[i] = value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b8[:])))
		case spillKindStr:
			n, err := binary.ReadUvarint(rd)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, n)
			if _, err := readFull(rd, buf); err != nil {
				return nil, err
			}
			t[i] = value.NewString(string(buf))
		case spillKindBool:
			c, err := rd.ReadByte()
			if err != nil {
				return nil, err
			}
			t[i] = value.NewBool(c != 0)
		default:
			return nil, fmt.Errorf("bad value kind byte %d", kind)
		}
	}
	return t, nil
}

func readFull(rd *bufio.Reader, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := rd.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
