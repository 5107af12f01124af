// Package benchprogs contains the five benchmark Lisp programs used to
// generate list access traces, standing in for the thesis's PLAGEN, SLANG,
// LYRA, EDITOR and PEARL (§3.3.1). The originals are proprietary 1980s
// programs; these replacements play the same roles — a PLA generator, an
// event-driven circuit simulator, a VLSI geometry rule checker, a structure
// editor, and a frame database — and are calibrated to reproduce the
// qualitative primitive mixes of Fig 3.1 and the complexity metrics of
// Table 3.1:
//
//   - PLAGEN, LYRA, EDITOR: predominance of access primitives (car/cdr)
//   - SLANG: markedly higher cons percentage
//   - PEARL: markedly higher rplaca/rplacd percentage and almost no
//     primitive chaining (its data lives in direct-access tables)
//   - EDITOR: much larger and more deeply structured lists (n≈75, p≈21
//     in the thesis, versus n≈10, p≤3 for the others)
//   - trace lengths ordered LYRA ≫ PLAGEN > SLANG > EDITOR (Table 5.1)
package benchprogs

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/lisp"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Benchmark is one traceable Lisp workload.
type Benchmark struct {
	Name string
	// Gen produces the full program source for a given scale. Scale 1 is
	// the default test size; larger scales lengthen the trace roughly
	// linearly.
	Gen func(scale int) string
}

// All returns the five benchmarks in the thesis's usual reporting order.
func All() []Benchmark {
	return []Benchmark{
		{Name: "slang", Gen: slangSource},
		{Name: "plagen", Gen: plagenSource},
		{Name: "lyra", Gen: lyraSource},
		{Name: "editor", Gen: editorSource},
		{Name: "pearl", Gen: pearlSource},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Trace runs the benchmark at the given scale on the bytecode VM and
// returns the collected trace. The stream is byte-identical to the one
// the tree-walking interpreter produces; the differential tests in
// internal/vm hold the two engines to that.
func Trace(b Benchmark, scale int) (*trace.Trace, error) {
	return TraceCtx(context.Background(), b, scale)
}

// TraceCtx is Trace under ctx: generation stops with ctx's error once
// ctx is done.
func TraceCtx(ctx context.Context, b Benchmark, scale int) (*trace.Trace, error) {
	if scale < 1 {
		scale = 1
	}
	prog, err := vm.Compile(b.Gen(scale))
	if err != nil {
		return nil, fmt.Errorf("benchprogs: %s: %w", b.Name, err)
	}
	col := lisp.NewCollector(b.Name)
	// The table grows on demand, so a large one costs only what the run
	// uses, and no run pays for pseudo-overflow compression.
	m := core.NewMachine(core.Config{LPTSize: 1 << 16})
	v := vm.New(prog, vm.WithTrace(col), vm.WithMachine(m), vm.WithStepLimit(200_000_000))
	v.SetContext(ctx)
	if _, err := v.Run(); err != nil {
		return nil, fmt.Errorf("benchprogs: %s: %w", b.Name, err)
	}
	return &col.T, nil
}

// TraceAll produces all five traces at the given scale.
func TraceAll(scale int) (map[string]*trace.Trace, error) {
	out := make(map[string]*trace.Trace)
	for _, b := range All() {
		t, err := Trace(b, scale)
		if err != nil {
			return nil, err
		}
		out[b.Name] = t
	}
	return out, nil
}

// slangSource is the circuit simulator: an event-driven gate-level
// simulator. Each cycle rebuilds the value association list functionally,
// which makes cons unusually frequent — the thesis observed SLANG having
// "a higher cons percentage than any of the other programs".
func slangSource(scale int) string {
	var sb strings.Builder
	r := rand.New(rand.NewSource(7))
	// Build a random combinational circuit: gates (name op in1 in2).
	nIn := 4 + scale
	nGates := 10 + 3*scale
	sb.WriteString(slangDefs)
	sb.WriteString("(setq circuit '(\n")
	signals := []string{}
	for i := 0; i < nIn; i++ {
		signals = append(signals, fmt.Sprintf("i%d", i))
	}
	ops := []string{"and2", "or2", "xor2", "nand2"}
	for g := 0; g < nGates; g++ {
		a := signals[r.Intn(len(signals))]
		b := signals[r.Intn(len(signals))]
		name := fmt.Sprintf("w%d", g)
		fmt.Fprintf(&sb, "  (%s %s %s %s)\n", name, ops[r.Intn(len(ops))], a, b)
		signals = append(signals, name)
	}
	sb.WriteString("))\n")
	// Simulate input vectors, like the thesis's BCD-to-decimal converter
	// runs.
	nVectors := 3 + scale
	fmt.Fprintf(&sb, "(setq vectors '(\n")
	for v := 0; v < nVectors; v++ {
		sb.WriteString("  (")
		for i := 0; i < nIn; i++ {
			fmt.Fprintf(&sb, "%d ", r.Intn(2))
		}
		sb.WriteString(")\n")
	}
	sb.WriteString("))\n")
	fmt.Fprintf(&sb, "(setq innames '(%s))\n", strings.Join(signals[:nIn], " "))
	sb.WriteString("(run-vectors vectors 1 0)\n")
	return sb.String()
}

// Signal values live in property cells fetched by name (the direct-access
// style of a table-driven simulator); each gate evaluation conses a fresh
// value cell and a waveform record, giving SLANG its elevated cons share.
const slangDefs = `
(def set-inputs (lambda (names vec tick)
  (cond ((null names) nil)
        (t (putprop (car names) (cons (car vec) tick) 'val)
           (set-inputs (cdr names) (cdr vec) tick)))))

(def gate-eval (lambda (op a b)
  (cond ((eq op 'and2) (cond ((and (= a 1) (= b 1)) 1) (t 0)))
        ((eq op 'or2)  (cond ((or (= a 1) (= b 1)) 1) (t 0)))
        ((eq op 'xor2) (cond ((= a b) 0) (t 1)))
        ((eq op 'nand2) (cond ((and (= a 1) (= b 1)) 0) (t 1)))
        (t 0))))

(def sim-gate (lambda (g tick)
  (let ((v (gate-eval (cadr g)
                      (car (get (caddr g) 'val))
                      (car (get (cadddr g) 'val)))))
    (putprop (car g) (cons v tick) 'val)
    (cons (car g) (cons v tick)))))

(def sim-step (lambda (gates tick wave)
  (cond ((null gates) wave)
        (t (sim-step (cdr gates) tick
             (cons (sim-gate (car gates) tick) wave))))))

(def run-one (lambda (vec tick)
  (set-inputs innames vec tick)
  (sim-step circuit tick nil)))

(def run-vectors (lambda (vs tick acc)
  (cond ((null vs) acc)
        (t (run-vectors (cdr vs) (add1 tick)
             (+ acc (length (run-one (car vs) tick))))))))
`

// plagenSource is the PLA generator: from a list of product terms it
// builds AND-plane and OR-plane row lists, folds identical rows, and
// counts transistor sites. Access primitives dominate, as in the thesis's
// traffic-light-controller PLAGEN run.
func plagenSource(scale int) string {
	var sb strings.Builder
	r := rand.New(rand.NewSource(11))
	nInputs := 5
	nOutputs := 3
	nTerms := 14 * scale
	sb.WriteString(plagenDefs)
	// Three independent PLAs (e.g. the next-state, output, and timing
	// planes of a controller) are generated in sequence; their term lists
	// are disjoint structures, so each forms its own locale of reference.
	for pla := 0; pla < 3; pla++ {
		// Each plane spells its bits with its own symbols (o0/i0/x0,
		// o1/i1/x1, ...), keeping the three PLAs' structures — including
		// every suffix reached during traversal — textually disjoint in
		// the trace.
		bits := []string{fmt.Sprintf("o%d ", pla), fmt.Sprintf("i%d ", pla), fmt.Sprintf("x%d ", pla)}
		fmt.Fprintf(&sb, "(setq terms%d '(\n", pla)
		for i := 0; i < nTerms; i++ {
			sb.WriteString("  ((")
			for j := 0; j < nInputs; j++ {
				sb.WriteString(bits[r.Intn(3)])
			}
			sb.WriteString(") (")
			for j := 0; j < nOutputs; j++ {
				sb.WriteString(bits[r.Intn(2)])
			}
			sb.WriteString("))\n")
		}
		sb.WriteString("))\n")
	}
	sb.WriteString("(list (plagen terms0 'x0 'i0) (plagen terms1 'x1 'i1) (plagen terms2 'x2 'i2))\n")
	return sb.String()
}

const plagenDefs = `
(def same-row (lambda (a b)
  (cond ((null a) (null b))
        ((null b) nil)
        ((eq (car a) (car b)) (same-row (cdr a) (cdr b)))
        (t nil))))

(def find-row (lambda (row rows)
  (cond ((null rows) nil)
        ((same-row row (car rows)) (car rows))
        (t (find-row row (cdr rows))))))

(def and-plane (lambda (ts acc)
  (cond ((null ts) acc)
        ((find-row (caar ts) acc) (and-plane (cdr ts) acc))
        (t (and-plane (cdr ts) (cons (caar ts) acc))))))

(def count-sites (lambda (row dc)
  (cond ((null row) 0)
        ((eq (car row) dc) (count-sites (cdr row) dc))
        (t (add1 (count-sites (cdr row) dc))))))

(def plane-sites (lambda (rows dc)
  (cond ((null rows) 0)
        (t (+ (count-sites (car rows) dc) (plane-sites (cdr rows) dc))))))

(def or-plane (lambda (ts)
  (cond ((null ts) nil)
        (t (cons (cadar ts) (or-plane (cdr ts)))))))

(def or-sites (lambda (rows one)
  (cond ((null rows) 0)
        (t (+ (count-ones (car rows) one) (or-sites (cdr rows) one))))))

(def count-ones (lambda (row one)
  (cond ((null row) 0)
        ((eq (car row) one) (add1 (count-ones (cdr row) one)))
        (t (count-ones (cdr row) one)))))

(def plagen (lambda (ts dc one)
  (let ((ap (and-plane ts nil))
        (op (or-plane ts)))
    (list 'rows (length ap) 'and-sites (plane-sites ap dc) 'or-sites (or-sites op one)))))
`

// lyraSource is the design rule checker: pairwise spacing checks over a
// list of rectangles per layer. It produces the longest trace by far, is
// extremely access-heavy, and its cxr accessors yield the thesis's highest
// chaining percentages (Table 3.2: 82.75% of LYRA's cars chained).
func lyraSource(scale int) string {
	var sb strings.Builder
	r := rand.New(rand.NewSource(13))
	nRects := 30 + 30*scale
	sb.WriteString(lyraDefs)
	sb.WriteString("(setq layout '(\n")
	// Layers draw their coordinates from disjoint ranges (mask layers are
	// at different mask offsets anyway), which keeps the rectangle
	// structures of different layers textually disjoint in the trace.
	layers := []string{"poly", "diff", "metal"}
	for i := 0; i < nRects; i++ {
		li := r.Intn(len(layers))
		base := 1000 * li
		x := base + r.Intn(80)
		y := base + r.Intn(80)
		fmt.Fprintf(&sb, "  (%s %d %d %d %d)\n",
			layers[li], x, y, x+1+r.Intn(8), y+1+r.Intn(8))
	}
	sb.WriteString("))\n")
	sb.WriteString("(list (check-layer 'poly 2) (check-layer 'diff 3) (check-layer 'metal 3))\n")
	return sb.String()
}

const lyraDefs = `
(def rect-layer (lambda (rk) (car rk)))
(def rect-x1 (lambda (rk) (cadr rk)))
(def rect-y1 (lambda (rk) (caddr rk)))
(def rect-x2 (lambda (rk) (cadddr rk)))
(def rect-y2 (lambda (rk) (car (cddddr rk))))

(def on-layer (lambda (lay rects)
  (cond ((null rects) nil)
        ((eq (rect-layer (car rects)) lay)
         (cons (car rects) (on-layer lay (cdr rects))))
        (t (on-layer lay (cdr rects))))))

(def gap (lambda (a1 a2 b1 b2)
  (cond ((lessp a2 b1) (- b1 a2))
        ((lessp b2 a1) (- a1 b2))
        (t 0))))

(def spacing-ok (lambda (a b min)
  (let ((dx (gap (rect-x1 a) (rect-x2 a) (rect-x1 b) (rect-x2 b)))
        (dy (gap (rect-y1 a) (rect-y2 a) (rect-y1 b) (rect-y2 b))))
    (cond ((and (zerop dx) (zerop dy)) t)
          ((>= (max dx dy) min) t)
          (t nil)))))

(def check-pair-list (lambda (rk rest min vios lay)
  (cond ((null rest) vios)
        ((spacing-ok rk (car rest) min)
         (check-pair-list rk (cdr rest) min vios lay))
        (t (check-pair-list rk (cdr rest) min (cons lay vios) lay)))))

(def check-all (lambda (rects min vios lay)
  (cond ((null rects) vios)
        (t (check-all (cdr rects) min
             (check-pair-list (car rects) (cdr rects) min vios lay) lay)))))

(def check-layer (lambda (lay min)
  (length (check-all (on-layer lay layout) min nil lay))))
`

// editorSource is the structure editor: it performs an editing script —
// global substitutions, searches and path modifications — over one large,
// deeply nested document, matching the thesis's Interlisp TTY-editor
// session. Its lists are an order of magnitude bigger and more structured
// than the other benchmarks' (Table 3.1: n=74.7, p=21.0).
func editorSource(scale int) string {
	var sb strings.Builder
	r := rand.New(rand.NewSource(17))
	sb.WriteString(editorDefs)
	// Build a nested "function definition" document.
	// The session edits three separate function definitions in turn; each
	// document is a disjoint structure forming its own locale. Every
	// document uses its own identifier vocabulary so textually identical
	// subforms cannot alias across documents in the trace. The script per
	// document is search-dominated: one substitution, then repeated
	// global searches and depth measurements.
	baseWords := []string{"setq", "cond", "lambda", "foo", "bar", "baz", "x", "y", "tmp", "prog"}
	for d := 0; d < 3; d++ {
		words := make([]string, len(baseWords))
		for i, w := range baseWords {
			words[i] = fmt.Sprintf("%s%d", w, d)
		}
		var gen func(depth int) string
		var genList func(depth, width int) string
		gen = func(depth int) string {
			if depth <= 0 || r.Intn(5) == 0 {
				return words[r.Intn(len(words))]
			}
			return genList(depth-1, 2+r.Intn(3))
		}
		genList = func(depth, width int) string {
			parts := make([]string, width)
			for i := range parts {
				parts[i] = gen(depth)
			}
			return "(" + strings.Join(parts, " ") + ")"
		}
		fmt.Fprintf(&sb, "(setq doc%d '%s)\n", d, genList(5+d%2, 2+scale))
	}
	for d := 0; d < 3; d++ {
		fmt.Fprintf(&sb, "(setq doc%d (edit-subst 'foo%d 'newfoo%d doc%d))\n", d, d, d, d)
		fmt.Fprintf(&sb, `(list (edit-count 'bar%d doc%d)
      (edit-count 'newfoo%d doc%d)
      (edit-count 'x%d doc%d)
      (edit-find 'baz%d doc%d)
      (edit-depth doc%d))
`, d, d, d, d, d, d, d, d, d)
	}
	return sb.String()
}

const editorDefs = `
(def edit-subst (lambda (old new form)
  (cond ((eq form old) new)
        ((atom form) form)
        (t (cons (edit-subst old new (car form))
                 (edit-subst old new (cdr form)))))))

(def edit-count (lambda (sym form)
  (cond ((eq form sym) 1)
        ((atom form) 0)
        (t (+ (edit-count sym (car form)) (edit-count sym (cdr form)))))))

(def edit-depth (lambda (form)
  (cond ((atom form) 0)
        (t (max (add1 (edit-depth (car form))) (edit-depth (cdr form)))))))

(def edit-find (lambda (sym form)
  (cond ((eq form sym) t)
        ((atom form) nil)
        ((edit-find sym (car form)) t)
        (t (edit-find sym (cdr form))))))
`

// pearlSource is the frame database: records are built once, then looked
// up and destructively updated in place with rplaca/rplacd. The thesis's
// PEARL kept its data in Franz "hunks" (direct-access structures), so its
// trace shows very high rplac percentages and almost no chaining (Table
// 3.2: under 1%). We imitate the direct-access behaviour by touching
// slots through pre-resolved handles rather than car/cdr walks.
func pearlSource(scale int) string {
	var sb strings.Builder
	r := rand.New(rand.NewSource(19))
	nRecs := 8 + 2*scale
	nUpdates := 120 * scale
	sb.WriteString(pearlDefs)
	sb.WriteString("(setq db nil)\n")
	for i := 0; i < nRecs; i++ {
		fmt.Fprintf(&sb, "(db-insert 'rec%d %d %d)\n", i, r.Intn(100), r.Intn(100))
	}
	for i := 0; i < nUpdates; i++ {
		rec := r.Intn(nRecs)
		switch r.Intn(3) {
		case 0:
			fmt.Fprintf(&sb, "(db-set-a 'rec%d %d)\n", rec, r.Intn(1000))
		case 1:
			fmt.Fprintf(&sb, "(db-set-b 'rec%d %d)\n", rec, r.Intn(1000))
		default:
			fmt.Fprintf(&sb, "(db-bump 'rec%d)\n", rec)
		}
	}
	sb.WriteString("(db-sum)\n")
	return sb.String()
}

const pearlDefs = `
(def db-insert (lambda (name a b)
  (let ((cell-b (cons b (cons 0 (cons 0 (cons 0 (cons 0 nil)))))))
    (let ((cell-a (cons a cell-b)))
      (putprop name (cons name cell-a) 'frame)
      (putprop name cell-a 'slota)
      (putprop name cell-b 'slotb)
      (setq db (cons name db))))))

(def db-set-a (lambda (name v)
  (rplaca (get name 'slota) v)))

(def db-set-b (lambda (name v)
  (rplaca (get name 'slotb) v)))

(def db-bump (lambda (name)
  (let ((slot (get name 'slota)))
    (let ((v (car slot)))
      (rplaca slot (add1 v))))))

(def db-sum-rec (lambda (names acc)
  (cond ((null names) acc)
        (t (db-sum-rec (cdr names)
             (+ acc (car (get (car names) 'slota))))))))

(def db-sum (lambda () (db-sum-rec db 0)))
`
