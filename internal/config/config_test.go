package config

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"f2c/internal/aggregate"
	"f2c/internal/cloud"
	"f2c/internal/core"
	"f2c/internal/fognode"
	"f2c/internal/model"
	"f2c/internal/segment"
	"f2c/internal/sim"
	"f2c/internal/transport/tcpnet"
	"f2c/internal/wal"
)

func TestBarcelonaDeployment(t *testing.T) {
	d := Barcelona()
	if err := d.Validate(); err != nil {
		t.Fatalf("Barcelona deployment invalid: %v", err)
	}
	topo, err := d.Topology()
	if err != nil {
		t.Fatal(err)
	}
	f1, f2, _ := topo.Counts()
	if f1 != 73 || f2 != 10 {
		t.Errorf("topology = %d/%d", f1, f2)
	}
}

func TestOptionsMapping(t *testing.T) {
	d := Barcelona()
	clock := sim.NewVirtualClock(time.Unix(0, 0))
	opts, err := d.Options(clock)
	if err != nil {
		t.Fatal(err)
	}
	if opts.City != "Barcelona" || !opts.Dedup || !opts.Quality {
		t.Errorf("opts = %+v", opts)
	}
	if opts.Codec != aggregate.CodecZip {
		t.Errorf("codec = %v", opts.Codec)
	}
	if opts.Fog1FlushInterval != 15*time.Minute || opts.Fog2FlushInterval != time.Hour {
		t.Errorf("flush intervals = %v / %v", opts.Fog1FlushInterval, opts.Fog2FlushInterval)
	}
	if opts.Fog1Retention != time.Hour || opts.Fog2Retention != 24*time.Hour {
		t.Errorf("retentions = %v / %v", opts.Fog1Retention, opts.Fog2Retention)
	}
}

func TestElasticOwnershipMapping(t *testing.T) {
	d, err := Parse([]byte(`{
		"city": "x",
		"districts": [{"name": "a", "sections": 3}],
		"elasticOwnership": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	if !opts.ElasticOwnership {
		t.Error("elasticOwnership did not reach the options")
	}
	// Default stays off.
	if opts, err := Barcelona().Options(sim.WallClock{}); err != nil || opts.ElasticOwnership {
		t.Errorf("Barcelona should not be elastic by default (err %v)", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.json")
	want := Barcelona()
	if err := want.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.City != want.City || len(got.Districts) != len(want.Districts) ||
		got.Codec != want.Codec || got.Fog1FlushSeconds != want.Fog1FlushSeconds {
		t.Errorf("round trip = %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{nope`,
		"empty city":     `{"districts":[{"name":"a","sections":1}]}`,
		"no districts":   `{"city":"x"}`,
		"unnamed":        `{"city":"x","districts":[{"sections":1}]}`,
		"zero sections":  `{"city":"x","districts":[{"name":"a","sections":0}]}`,
		"bad codec":      `{"city":"x","codec":"lzma","districts":[{"name":"a","sections":1}]}`,
		"negative":       `{"city":"x","fog1FlushSeconds":-1,"districts":[{"name":"a","sections":1}]}`,
		"negative rate":  `{"city":"x","ingestRateBytes":-1,"districts":[{"name":"a","sections":1}]}`,
		"negative bound": `{"city":"x","maxPendingReadings":-1,"districts":[{"name":"a","sections":1}]}`,
	}
	for name, data := range cases {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDefaultCodecIsZip(t *testing.T) {
	d, err := Parse([]byte(`{"city":"x","districts":[{"name":"a","sections":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Codec != aggregate.CodecZip {
		t.Errorf("default codec = %v, want zip", opts.Codec)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("expected error")
	}
}

func TestSaveInvalidDeployment(t *testing.T) {
	if err := (Deployment{}).Save(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Error("expected error")
	}
}

func TestSavedDocumentIsReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "city.json")
	if err := Barcelona().Save(path); err != nil {
		t.Fatal(err)
	}
	d, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(d.Districts))
	for _, ds := range d.Districts {
		names = append(names, ds.Name)
	}
	if !strings.Contains(strings.Join(names, ","), "Nou Barris") {
		t.Errorf("districts = %v", names)
	}
}

func TestPerCategoryFlushPolicy(t *testing.T) {
	d, err := Parse([]byte(`{
		"city": "x",
		"districts": [{"name": "a", "sections": 1}],
		"fog1FlushByCategorySeconds": {"urban": 300, "energy": 900}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	if got := opts.Fog1FlushByCategory[model.CategoryUrban]; got != 5*time.Minute {
		t.Errorf("urban flush = %v, want 5m", got)
	}
	if got := opts.Fog1FlushByCategory[model.CategoryEnergy]; got != 15*time.Minute {
		t.Errorf("energy flush = %v, want 15m", got)
	}

	// Invalid policies rejected.
	bad := []string{
		`{"city":"x","districts":[{"name":"a","sections":1}],"fog1FlushByCategorySeconds":{"plasma":60}}`,
		`{"city":"x","districts":[{"name":"a","sections":1}],"fog1FlushByCategorySeconds":{"urban":0}}`,
	}
	for i, data := range bad {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestProductionProfile: a document-built deployment always gates its
// handlers behind admission, and a data dir always means journal and
// segment store together; the overload fields reach the options.
func TestProductionProfile(t *testing.T) {
	d, err := Parse([]byte(`{
		"city": "x",
		"districts": [{"name": "a", "sections": 1}],
		"dataDir": "/var/lib/f2c",
		"ingestRateBytes": 4096,
		"maxPendingReadings": 500,
		"degradeToSummary": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	if mo := opts.Member(opts.Topology.Cloud(), nil, nil); opts.DataDir != "/var/lib/f2c" || mo.Durability == nil || mo.Storage == nil {
		t.Errorf("dataDir %q: journal %+v / segment store %+v: a data dir must enable both", opts.DataDir, mo.Durability, mo.Storage)
	}
	if opts.Overload == nil || opts.Overload.Classes["ingest"].Rate != 4096 {
		t.Errorf("overload = %+v, want admission on with the ingest class capped at 4096 B/s", opts.Overload)
	}
	if opts.MaxPendingReadings != 500 || !opts.DegradeToSummary {
		t.Errorf("bound %d / degrade %v did not reach the options",
			opts.MaxPendingReadings, opts.DegradeToSummary)
	}
	ram, err := Barcelona().Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	if mo := ram.Member(ram.Topology.Cloud(), nil, nil); ram.Overload == nil || ram.Overload.Classes["ingest"].Rate != 0 || mo.Durability != nil || mo.Storage != nil {
		t.Errorf("default profile = overload %+v, journal %+v, segment store %+v; want unlimited admission, in-memory",
			ram.Overload, mo.Durability, mo.Storage)
	}
}

// TestRetiredFieldsStillParse: documents written before the profile
// moved into the document keep loading — the fields a document-built
// node no longer chooses are ignored, not rejected.
func TestRetiredFieldsStillParse(t *testing.T) {
	d, err := Parse([]byte(`{
		"city": "x",
		"districts": [{"name": "a", "sections": 2}],
		"overload": false,
		"segmentStorage": false,
		"virtualNodes": 64,
		"degradeWindowSeconds": 30,
		"nodeRetentionSeconds": {"cloud": 60}
	}`))
	if err != nil {
		t.Fatalf("a parent-era document must still parse and validate: %v", err)
	}
	if opts, err := d.Options(sim.WallClock{}); err != nil || opts.Overload == nil {
		t.Errorf("options from a parent-era document: overload %v, err %v", opts.Overload, err)
	}
}

// TestAdaptiveFlushRefused: the RTT-driven flush policy is retired. A
// document that asks for it is refused at parse, naming the
// retirement, so a node never silently runs another profile than the
// one its document declares; false or absent loads.
func TestAdaptiveFlushRefused(t *testing.T) {
	for _, field := range []string{`, "adaptiveFlush": true`, `, "adaptiveFlush": false`, ``} {
		_, err := Parse([]byte(`{"city": "x", "districts": [{"name": "a", "sections": 1}]` + field + `}`))
		if refuse := strings.Contains(field, "true"); refuse != (err != nil) {
			t.Errorf("document with %q: err %v, want refused %v", field, err, refuse)
		} else if refuse && !strings.Contains(err.Error(), "adaptiveFlush is retired") {
			t.Errorf("adaptiveFlush true refused with %q, want the retirement named", err)
		}
	}
}

// hostOnly lists the core.Options fields the deployment document
// deliberately does not carry: what a host supplies itself (clock,
// topology, accounting, observers) and the tuning fields only tests,
// the chaos harness and benchmarks move.
var hostOnly = map[string]string{
	"Matrix":           "host: traffic accounting sink",
	"Registry":         "host: one per process / per hosted node",
	"Emulate":          "host: latency emulation on the simulated network",
	"Seed":             "host: simulated-network loss draws",
	"AlertObserver":    "host: chaos fire-side ledger",
	"FlushConcurrency": "tuning: System flush parallelism",
	"FlushWorkers":     "tuning: per-node flush workers",
	"RetryBase":        "tuning: resilience, chaos only",
	"RetryMax":         "tuning: resilience, chaos only",
	"FailoverAfter":    "tuning: resilience, chaos only",
	"SnapshotEvery":    "tuning: checkpoint cadence, chaos only",
}

// TestOptionsSurfaceCannotDrift: every core.Options field is either
// written by Deployment.Options or named in hostOnly. A field added to
// core.Options lands in neither and fails here, so the document and
// the library cannot grow apart silently again.
func TestOptionsSurfaceCannotDrift(t *testing.T) {
	d, err := Parse([]byte(`{
		"city": "x",
		"districts": [{"name": "a", "sections": 2}],
		"codec": "gzip", "dedup": true, "quality": true,
		"fog1FlushSeconds": 1, "fog2FlushSeconds": 2,
		"fog1RetentionSeconds": 3, "fog2RetentionSeconds": 4,
		"fog1FlushByCategorySeconds": {"urban": 5},
		"dataDir": "d", "memtableBytes": 6, "cloudRetentionSeconds": 7,
		"ingestRateBytes": 8, "maxPendingReadings": 9,
		"degradeToSummary": true, "elasticOwnership": true
	}`))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.Options(sim.WallClock{})
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(opts)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		_, host := hostOnly[name]
		written := !v.Field(i).IsZero()
		switch {
		case written && host:
			t.Errorf("core.Options.%s is written by Deployment.Options and listed host-only: pick one", name)
		case !written && !host:
			t.Errorf("core.Options.%s is neither written by Deployment.Options (with every document field set) nor listed host-only", name)
		}
	}
	for name := range hostOnly {
		if _, ok := reflect.TypeOf(core.Options{}).FieldByName(name); !ok {
			t.Errorf("hostOnly names %s, which core.Options no longer has", name)
		}
	}
}

// TestSettableValues pins the settable values of the node
// configuration structs, by name and in declaration order. A field
// added to any of them fails here until this list names it, so every
// new knob is a reviewed edit, not a side effect.
func TestSettableValues(t *testing.T) {
	for _, tc := range []struct {
		v      any
		fields string
	}{
		{core.Options{}, "Topology Clock City Codec Dedup Quality Fog1Retention Fog2Retention " +
			"Fog1FlushInterval Fog2FlushInterval Fog1FlushByCategory Matrix Registry Emulate Seed " +
			"FlushConcurrency FlushWorkers MaxPendingReadings RetryBase RetryMax FailoverAfter DataDir " +
			"SnapshotEvery MemtableBytes Overload DegradeToSummary ElasticOwnership " +
			"AlertObserver CloudRetention"},
		{core.MemberOptions{}, "City Clock Transport Retention FlushInterval Codec Dedup Quality " +
			"Registry Siblings FlushWorkers MaxPendingReadings RetryBase RetryMax FailoverAfter " +
			"Durability Storage Overload DegradeToSummary CloudRetention AlertObserver"},
		{fognode.Config{}, "Spec City Clock Transport Retention FlushInterval Codec Dedup Quality " +
			"Registry MaxPendingReadings DegradeToSummary AlertObserver Scheduler FlushWorkers " +
			"Siblings RetryBase RetryMax FailoverAfter Durability Storage"},
		{cloud.Config{}, "ID City Clock Registry Scheduler Retention Durability Storage"},
		{segment.Options{}, "Dir Retention MemtableBytes BlockReadings CompactMinSegments Codec " +
			"NoBackground Registry MetricsPrefix"},
		{wal.Config{}, "Dir SnapshotEvery SyncEveryAppend"},
		{tcpnet.Options{}, "DialTimeout MaxFrame Window Conns Registry"},
		{tcpnet.ServerOptions{}, "MaxFrame MaxInflight Registry"},
	} {
		typ := reflect.TypeOf(tc.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if want := strings.Fields(tc.fields); !reflect.DeepEqual(got, want) {
			t.Errorf("%s settable values\n got %v\nwant %v", typ, got, want)
		}
	}
}

// TestNoTestOnlyExports fails on an exported function or method,
// declared in a non-test file under internal/, whose name no non-test
// file of the repository references: code that only tests call
// belongs in a _test.go file. Callers are matched by name, so a
// test-only method that shares its name with a used identifier slips
// through. Methods that satisfy a standard interface are skipped; the
// hooks kept on purpose are listed with the reason for each.
func TestNoTestOnlyExports(t *testing.T) {
	kept := map[string]string{
		"baseline.System.Collect":               "internal/baseline waits on the comparison arm (ROADMAP item 1)",
		"baseline.IsNotFound":                   "internal/baseline waits on the comparison arm (ROADMAP item 1)",
		"cloud.Node.Preserve":                   "opendata's TestClientEndToEnd seeds the archive through it",
		"metrics.TrafficMatrix.MessagesByClass": "core's TestRunDayPerCategoryFlushPolicy reads it",
		"segment.Store.SegmentCount":            "fognode's and cloud's TestOneLogDataDir and store's TestSegmentPageWalkStraddlesFlush read it",
	}
	standard := map[string]bool{"Error": true, "Unwrap": true, "String": true, "Len": true,
		"Less": true, "Swap": true, "Push": true, "Pop": true, "ServeHTTP": true}

	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]string{} // qualified name -> identifier
	for _, dir := range []string{"cmd", "internal", "examples", "bench", "."} {
		top := filepath.Join(root, dir)
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != top && (dir == "." || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decl := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decl[fd.Name] = true
				if dir != "internal" || !fd.Name.IsExported() || (fd.Recv != nil && standard[fd.Name.Name]) {
					continue
				}
				name := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok {
						recv = idx.X
					}
					name = f.Name.Name + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name
				}
				declared[name] = fd.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decl[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, ident := range declared {
		_, ok := kept[name]
		switch {
		case !used[ident] && !ok:
			t.Errorf("%s is exported but only tests call it: delete it, move it into a _test.go file, or list it here with the reason", name)
		case used[ident] && ok:
			t.Errorf("%s is listed as a test hook but non-test code calls it: drop it from the list", name)
		}
	}
	for name := range kept {
		if _, ok := declared[name]; !ok {
			t.Errorf("the list names %s, which is no longer declared", name)
		}
	}
}

// TestNoUnboundedSends fails on a send no deadline can end: outside a
// main package, non-test code must not call Send(context.Background(),
// ...) or use context.TODO(). A send under a lock that waits on a peer
// that never answers holds everything behind the lock; the caller's
// context or a deadline derived from one (a flush period, the fan-out
// timeout) bounds it. Cases kept on purpose are listed with the reason
// for each, keyed by file and enclosing function.
func TestNoUnboundedSends(t *testing.T) {
	kept := map[string]string{}
	isCall := func(e ast.Expr, pkg, name string) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != name {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	seen := map[string]bool{}
	for _, dir := range []string{"cmd", "internal", "examples", "."} {
		top := filepath.Join(root, dir)
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != top && (dir == "." || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil || f.Name.Name == "main" {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					var what string
					switch sel, ok := call.Fun.(*ast.SelectorExpr); {
					case isCall(call, "context", "TODO"):
						what = "context.TODO()"
					case ok && sel.Sel.Name == "Send" && len(call.Args) > 0 && isCall(call.Args[0], "context", "Background"):
						what = "Send(context.Background(), ...)"
					default:
						return true
					}
					key := rel + ":" + fd.Name.Name
					seen[key] = true
					if _, ok := kept[key]; !ok {
						t.Errorf("%s: %s in %s: pass the caller's context or bound the send with a deadline, or list it here with the reason", fset.Position(call.Pos()), what, fd.Name.Name)
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for key := range kept {
		if !seen[key] {
			t.Errorf("the list names %s, which no longer sends unbounded", key)
		}
	}
}
