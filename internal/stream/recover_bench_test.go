package stream_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/stream"
)

// recoverBenchUsers is BenchmarkRecover's WAL size in users, one ingest
// record each (about 5 MB of log at 17-byte ids).
const recoverBenchUsers = 100_000

// benchSpec is the tenant spec of the recovery and bind+charge
// benchmarks: the mean task at ε = 1, ε₀ = 0.25 (three groups).
func benchSpec() core.Spec {
	return core.Spec{
		Task: core.TaskMean, Eps: 1, Eps0: 0.25,
		Serve: &core.ServeSpec{ExpectedUsers: recoverBenchUsers},
	}
}

// benchEntries returns n users' ingest entries, starting at user first:
// user i reports every value its group demands (group i mod h).
func benchEntries(groups []core.Group, first, n int) []stream.BatchEntry {
	out := make([]stream.BatchEntry, n)
	for j := range out {
		i := first + j
		g := i % len(groups)
		vals := make([]float64, groups[g].Reports)
		for k := range vals {
			vals[k] = float64((i+k)%7-3) / 10
		}
		out[j] = stream.BatchEntry{User: fmt.Sprintf("u1234abcd-%07d", i), Group: g, Values: vals}
	}
	return out
}

// BenchmarkRecover: crash recovery of a WAL-only store (no snapshot)
// holding recoverBenchUsers users' reports under fsync=os — the WAL
// scan plus the replay into one accountant row per user.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
	if err != nil {
		b.Fatal(err)
	}
	reg, _, err := stream.Recover(st)
	if err != nil {
		b.Fatal(err)
	}
	tn, err := reg.CreateSpec("default", benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	const batch = 200
	for i := 0; i < recoverBenchUsers; i += batch {
		for _, err := range tn.IngestBatch(benchEntries(tn.Groups(), i, batch)) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	// No reg.Close: it would cut a snapshot, and the benchmark replays
	// the WAL alone, as after a kill -9.
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := store.Open(dir, store.Options{Sync: store.SyncOS})
		if err != nil {
			b.Fatal(err)
		}
		reg, rep, err := stream.Recover(st)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		tn, _ := reg.Get("default")
		if rep.Records != recoverBenchUsers+1 || tn.Accountant().Users() != recoverBenchUsers {
			b.Fatalf("recovered %d records and %d users", rep.Records, tn.Accountant().Users())
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkIngestBatchNewUsers: bind+charge+apply of 200-entry batches
// from users never seen before, so every entry inserts a ledger row
// into a table that grows with b.N. Reports ns per entry.
func BenchmarkIngestBatchNewUsers(b *testing.B) {
	tn, err := stream.NewTenant("b", stream.Config{Spec: benchSpec(), Shards: 8})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 200
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		entries := benchEntries(tn.Groups(), i*batch, batch)
		b.StartTimer()
		for _, err := range tn.IngestBatch(entries) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/entry")
}
