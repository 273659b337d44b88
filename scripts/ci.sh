#!/usr/bin/env bash
# CI gate: vet, build, the full test suite under the race detector, and a
# doubled run of the chaos suite.
#
# The race run is the point of this script — the engine's parallel fetch
# pool, the answer cache, and the profile registry are all exercised by
# dedicated concurrency tests (race_test.go, determinism_test.go,
# internal/anscache) that only bite under -race.
#
# The chaos suite (chaos_test.go) arms internal/faultinject and hammers
# the engine with 32 goroutines while errors, panics, and latency fire at
# the injection sites; -count=2 reruns it to catch state leaking between
# runs (a fault plan left armed, a poisoned cache). Its panic cases
# (TestChaosPanicsBecomeErrInternal) cover the single engine and four shards:
# a panic inside one shard's share of a scatter must come back as
# ErrInternal, not take the process down. The full-suite pass
# above runs it with -short (scaled-down iteration counts) to keep tier-1
# wall clock flat; the dedicated pass below runs it at full strength.
#
# The crash-torture pass (persist_crash_test.go) kills the WAL at every
# byte offset and bit-flips both durability files; the -short run above
# strides through offsets, this dedicated pass covers every single one
# under -race. The fuzz smoke then runs the durability fuzz targets
# (snapshot decoder, WAL replayer, delta decoder, index-snapshot decoder),
# the JSON string escaper of /api/search (against encoding/json; its seeds put
# every byte it must look at on both sides of a word boundary), the
# sorted-id-list kernel behind every resident id list (FuzzIDList: a byte
# string run as insert / remove / union / intersect / append-to operations at
# both widths against a set) and the translator (FuzzNarrative: fuzzed
# sentences and labels on a hand-built G′, indexed and not, against the
# reference walk — the same bytes or the same error)
# for 10s each on top of the checked-in corpus — long enough to catch a
# regression in the decoders' bounds checks, short enough for CI. The
# index-snapshot corpus carries two files that are well-framed but break a
# posting-list invariant (a zero id gap, locations out of order): the
# sorted-slice index must reject them, where the map-of-maps one absorbed
# them.
#
# The incremental-checkpoint torture pass (persist_delta_crash_test.go,
# internal/wal delta_test.go) recovers the same scripted workload from
# every checkpoint-chain depth byte-identically, damages every byte of
# the base snapshot and every delta in the chain (committed deltas must
# hard-fail with an attributed CorruptionError — their covering logs are
# GC'd, so dropping one would lose data), and damages every byte of the
# persisted inverted index (which must NEVER fail an open: stale or
# corrupt index files silently fall back to a rebuild). It runs under
# -race with its own timeout because checkpoints now run concurrently
# with mutations — the serialize/fsync phase happens off the engine
# lock against captured copy-on-write state.
#
# The replication convergence suite (replication_test.go, internal/repl)
# severs the primary→follower stream at swept byte offsets, injects
# send/recv/corruption faults around every live mutation, and storms a
# replicated pair — all under -race, because the follower applies the
# stream on one goroutine while queries read on others. The repl fuzz
# smoke feeds the follower's frame decoder raw adversarial bytes for 10s;
# its checked-in corpus includes MsgAck frames, so the primary's ack
# decode path is fuzzed alongside the follower's stream decoder.
#
# The quorum torture suite (quorum_replication_test.go) exercises
# synchronous replication's durability contract: it kills the primary
# after every quorum-acked mutation and promotes the durable follower,
# asserting the promoted copy equals the exact acked prefix (every acked
# write present, no unacked write surfaced); it also truncates the dead
# primary's WAL at swept byte strides, injects faults on the ack
# send/recv and follower-fsync sites mid-commit, and drives the
# ErrQuorumLost and sticky degraded-async fallback paths. It gets its own
# -race step with a per-step timeout because a quorum bug's natural
# failure mode is a writer blocked forever on an ack that never comes.
#
# The failover torture suite (failover_test.go, internal/repl
# failover_test.go) kills the primary after every acked mutation and
# promotes the follower IN PLACE via Engine.Promote, asserting the new
# primary serves exactly the acked prefix at the bumped epoch, that a
# live-deposed or resurrected old primary answers every mutation kind
# with the typed ErrFenced, and that the deposed directory rejoins as a
# follower through a forced snapshot bootstrap that truncates its
# diverged WAL suffix. It runs under -race with its own timeout for the
# same reason the quorum step does: promotion races Close and the
# supervisor's election loop, and a fencing bug's natural failure mode
# is a hang or a silent split brain, not a clean assertion.
#
# The sharding suite (shard_test.go, internal/shard) holds sharded
# answers byte-identical to the single engine across datasets,
# partitioners, shard counts, and pool sizes; kills and reopens every
# shard directory mid-storm; and storms the coordinator from 24
# goroutines under rotating scatter/gather/apply faults — all under
# -race, because the gather path merges per-shard goroutine results
# while mutations route concurrently. The quick sharded bench run at
# the end re-checks answer parity through the bench harness itself.
#
# The generator oracle step (internal/core differential_test.go) diffs the
# set-at-a-time result-database generator against the test-only
# statement-per-value / statement-per-tuple reference over datasets ×
# strategies × cardinalities × weights × pool sizes {1, 2, 8} × budgets ×
# {single engine, 1/3/4 shards}. The response-encoder oracle rides in the same
# step (internal/web TestSearchBodyMatchesEncodingJSON: the hand-written
# /api/search encoder against encoding/json over datasets × strategies ×
# weights × cardinalities, partial, traced, cached and hand-built answers,
# with the Content-Length and the keep-alive connection checked), next to the
# translator's reference-walk differential it shares the answers with. The whole-repository pass above runs it
# -short (one pool size per fetcher); this step runs the full matrix under
# -race, because the exclusion predicate reads the output relation R'j
# itself — from the fetch workers of a join batch and from every shard
# goroutine of a scatter at once — and only the apply phase may write it.
# The sqlx planner/evaluator differential and the id-set predicate through
# shard.Fetcher ride along, with the gather's own oracle
# (TestFetcherMatchesSingleEngine: seeded random rowid lists — shuffled,
# repeating, naming ids that are gone — in every spelling, IN-list statements
# and probes through 1-5 hash and range shards against sqlx.Engine on the
# unpartitioned database, row for row; the narrowed statements are built and
# executed on the scatter's goroutines), and so do the two statements of what Round-Robin
# reads and chooses: TestProbeMatchesSpec (Fetcher.Probe against a
# plain-slice spec, on the engine and on 1-4 hash and range shards, whose
# scatter goroutines only -race watches) and TestRoundRobinRounds; with them
# TestBlockLookupsMatchReference, the one gather loop behind IN and Probe
# against the reference scan around every block boundary.
#
# The schema-generator oracle rides in the same step: TestSchemaMatchesSpec
# diffs core.GenerateSchema against internal/spec — a package only tests
# import: every acyclic path enumerated, sorted, cut where the constraint says
# — over random graphs × weightings × seed sets × degree constraints, the cold
# traversal, the first call on a frozen graph and the memo hit each compared.
# Beside it TestDatabaseMatchesSpec diffs core.GenerateDatabaseOpts against the
# spec's Figure 5 — seeds, join order and postponement, NaïveQ, Round-Robin and
# Auto, per-relation and total caps — on the engine at 1, 2 and 4 workers and
# on 1-4 hash and 2-4 range shards, whose scatter goroutines only -race
# watches.
#
# The inverted-index oracle step (internal/invidx differential_test.go)
# diffs the sorted-slice index against the test-only map-of-maps reference
# (reference_test.go) over seeded AddTuple/RemoveTuple sequences — lookups,
# phrases, synonyms, document frequencies, counts, snapshot bytes, New ≡
# NewParallel for 1/2/3/8 workers. It runs under -race because of
# TestLookupResultsDoNotAliasIndex: queries copy posting lists under the
# read lock and keep reading their copies after releasing it while a writer
# appends to, shifts and deletes from the same lists; a result that aliased
# the index is a race the detector sees and nothing else does.
#
# The layout pins step is the one step that must NOT run under -race (the
# detector inflates the heap severalfold, and TestLiveBytesPerTuple skips
# itself there): sizeof(storage.Value) == 32, sizeof(slot) == 16, and the
# live heap per tuple of the engine built over the default synthetic
# dataset under its stated budget, so the bytes the resident-layout rework
# removed cannot creep back. BenchmarkEngineBuild (internal/invidx) reports
# the same number as B/tuple and is compiled by the bench smoke below.
# TestListBytesCountTheLists holds the list_bytes counts of /api/stats to the
# lists' own lengths, and TestIDSpaceBoundary (root and internal/storage) the
# price of four-byte resident ids: ids up to storage.MaxTupleID are handed out,
# the next insert is refused with storage.ErrOutOfIDs — allocated, strided,
# caller-chosen or batched, on one durable engine and on four shards — and
# the refusal leaves relation, indexes, inverted index and WAL untouched.
# TestAllocPerDeepAnswer rides in the same step for the same reason: it pins
# the bytes and the allocations of one deep-shaped answer (w=0.05, card=150,
# both strategies, default synthetic dataset) through
# Engine.QueryStringContext, so a second copy of the answer's tuples — a
# copying insert, a per-narrative join index, a tuple-reading cursor probe —
# fails here; BenchmarkGenerateDeep / BenchmarkNarrativeDeep report B/op for
# the two stages it is made of. TestAllocPerSearchResponse pins what the web
# layer adds to that answer on /api/search (the handler less the engine call
# inside it): the body is appended straight off D′ into a pooled buffer, so a
# [][]string copy of the rows or a reflective encoder fails here, and
# TestAllocPerDeepNarrative what the translator adds to the same answer.
# TestAllocPerBrowseAnswer is the same pin at the other end: a 40-tuple answer
# under the default constraints, one and two seed relations, where what a
# request pays regardless of its size is most of it — G′, D′'s layout and the
# join order are memoised on the frozen schema graph, and a traversal, a
# projected schema or a sorted edge list per request fails here.
# TestAllocPerShardedDeepAnswer is TestAllocPerDeepAnswer's two queries on
# NewSharded(4, "hash"): what the scatter/gather adds to an answer — a result
# per shard, a rowid list bucketed by owner, the merged rows — so a map, a
# sort or every id sent to every shard fails here before the benchmark's
# alloc_kb_per_op gate on `sharded` does.
# TestMemoIsBounded rides along for its heap check (1,000 distinct weight
# bounds leave the live heap where it was), which -race would blur, and so do
# the translator's own pins (internal/nlg): TestNarrativeKeepsNoState (a render
# allocates the same the second time, under its bound) and
# TestNarrationPlanHitAllocations (a G′'s narration plan, once compiled, is
# found again with no allocation).
#
# The memo's differential, staleness and concurrency tests (memo_test.go:
# warm engine against a cold one over a Clone of the graph on single, sharded,
# recovered and follower engines, across a follower re-bootstrap, the
# narratives of a frozen G′ against those of its unfrozen clone; eight
# goroutines meeting a new engine at once, and eight making the first use of a
# G′'s narration plan; a macro redefined between two queries of one G′; a label
# that does not parse failing only the answers that reach it) get a -race step
# of their own: it is what holds "nobody writes a shared G′ or plan".
#
# The ownership tests (ownership_test.go: a caller's slice scribbled after
# Engine.Insert/Update, tuples held across a WAL-failure rollback, a result
# row appended to beside its neighbour in the statement's array or in the
# stored row it is a run of, answer rows that are the base rows themselves on
# every engine shape and outlive an Update or Delete of their tuples;
# ownership_web_test.go: the base equal to its clone after queries, narratives
# and /api/search bodies) ride in
# the whole-repository -race pass with the rollback suites, as do the batch
# path's: storage's InsertBatch against a loop of InsertWithID, RunIndex
# against HashIndex and AppendLookups on both against a scan
# (batch_test.go), core's TestFaultMidJoinLeavesExactPrefix
# and TestResultDatabaseReadsArePure, and the root's
# TestParallelFetchesShareDrivingRelation and TestChaosMidGenerationFault —
# D′'s indexes are merged on the coordination goroutine and read by every
# fetch worker, which only -race can hold to "never built on read"; the
# generator-oracle step also runs the hash probe's plan tests and
# TestRoundRobinProbeReadsNoTuple.
#
# The bench smoke step compiles and runs every benchmark exactly once
# (-benchtime=1x) with no tests (-run=NONE). It does not measure anything;
# it keeps the benchmark code itself from rotting — a benchmark that no
# longer compiles or fatals on its first iteration fails CI here instead
# of on the next perf investigation. The seam benchmarks of the two hot
# stages (internal/core BenchmarkGenerateDeep, internal/nlg
# BenchmarkNarrativeDeep) are picked up here with everything else, and so are
# internal/storage's BenchmarkGather, BenchmarkInsertBatch and
# BenchmarkLookups, each the batch path beside the per-tuple or per-value loop
# it replaced, and internal/web's BenchmarkAppendJSONString.
#
# The benchmark module step covers benchmark/, which has its own go.mod
# (the repository's benchmark ships its own build file), so the root
# `go vet ./...` and `go test ./...` never descend into it. It replays
# queries stage by stage through nlg, core, sqlx and shard; an API change
# in one of those would otherwise surface only when the benchmark pipeline
# runs. vet + its short tests compile every file, and `run.sh -smoke`
# drives all four workloads end to end with their output checks (≈10 s).
#
# The role table (role_test.go TestRoleTable) rides in the whole-repository
# pass: every engine state (in-memory, persistent, sharded, follower,
# promoting, fenced, closed) × every operation the role gates, with the
# exact errors.Is targets and the leader hint / epoch each refusal carries.
# It is the statement the role state machine (role.go) is checked against;
# a transition that starts accepting or refusing something new fails here
# first, by name.
#
# The failover step also runs TestPromoteRacesStatsReaders and
# TestPromoteKeepsInstrumentation: PersistStats / Sync / ReplStats /
# LayoutStats spun from their own goroutines across a Promote (the mount of
# the follower's store is a write only -race can catch an unlocked reader
# of), and a follower instrumented before its promotion that must still
# export its WAL and checkpoint series after it. The replication step runs
# TestReplOneHistoryFourRoutes: one seeded history through a primary's API,
# a follower's stream, crash-copy recovery and a 3-shard coordinator, equal
# on snapshot and index bytes (the first three) and on answers (the fourth)
# — the guard on there being one apply path and one load path.
#
# The line-count report (scripts/loc.sh) prints non-test Go lines per
# package. It is a report, not a gate: the table ROADMAP.md quotes, printed
# where a PR that grows a package shows it.
#
# Every go test step carries an explicit -timeout so a deadlocked suite
# (the usual failure mode of replication and chaos bugs) kills the step
# instead of hanging the CI job until the outer scheduler reaps it.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== non-test Go lines per package (report only)"
bash scripts/loc.sh

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race (-short chaos; includes the role table)"
go test -race -count=1 -short -timeout=10m ./...

echo "== chaos suite -race -count=2 (full strength; panics at every site, single engine and 4 shards)"
go test -race -count=2 -timeout=10m -run 'TestChaos' .

echo "== crash torture -race (full strength: every WAL byte offset)"
go test -race -count=1 -timeout=10m -run 'TestCrashTorture' .

echo "== incremental checkpoint torture -race (chain depths, every chain/index byte)"
go test -race -count=1 -timeout=15m -run 'TestDeltaChain|TestPersistedIndex' .
go test -race -count=1 -timeout=10m -run 'TestDelta|TestStore|TestManifest|TestApplyDelta|TestIndexSnapshot' ./internal/wal ./internal/invidx

echo "== replication convergence -race (full strength: swept link cuts; one history, four routes)"
go test -race -count=1 -timeout=10m -run 'TestRepl|TestChaosReplicatedStorm' .
go test -race -count=1 -timeout=10m ./internal/repl

echo "== quorum torture -race (primary kills after every acked write, ack faults)"
go test -race -count=1 -timeout=10m -run 'TestQuorum|TestFollowerResume' .

echo "== failover torture -race (kill/promote after every acked write, fencing, stats readers across Promote)"
go test -race -count=1 -timeout=10m -run 'TestFailover|TestPromote|TestDeposed|TestAutoFailover' .

echo "== sharding -race (byte-parity sweep, crash recovery, faulted storm)"
go test -race -count=1 -timeout=10m -run 'TestSharded' .
go test -race -count=1 -timeout=5m ./internal/shard

echo "== generator oracle -race (full matrix: workers 1/2/8 x engine + 1/3/4 shards)"
go test -race -count=1 -timeout=10m -run 'TestGeneratorMatchesReference|TestRoundRobinStatementsPerJoin|TestRoundRobinProbeReadsNoTuple|TestRoundRobinRounds|TestQueriesCounts|TestSchemaMatchesSpec|TestDatabaseMatchesSpec' ./internal/core
go test -race -count=1 -timeout=5m -run 'TestSelectMatchesReferenceScan|TestHashProbePlan|TestBlockLookupsMatchReference|TestProbeMatchesSpec|TestRowIDInSet|TestWithRowIDs|TestFetcherIDSetPredicate|TestFetcherMatchesSingleEngine|TestFetcherRefusesMisplacedTuple' ./internal/sqlx ./internal/shard
go test -race -count=1 -timeout=5m -run 'TestNarrativeMatchesReference|TestSearchBodyMatchesEncodingJSON|TestAppendJSONString' ./internal/nlg ./internal/web

echo "== memo -race (warm = cold on every engine shape, concurrent first use of G′ and of its narration plan, macros, label errors)"
go test -race -count=1 -timeout=10m -run 'TestMemo|TestProfileQueriesShare' .

echo "== inverted-index oracle -race (sorted-slice postings vs map-of-maps reference)"
go test -race -count=1 -timeout=10m -run 'TestIndexMatchesReference|TestLookupResultsDoNotAliasIndex|TestIndexSnapshotRejectsMalformedPostings|TestFuzzCorpus' ./internal/invidx

echo "== layout pins (no -race: value and slot sizes, live bytes per tuple, list_bytes, the id-space boundary, bytes and allocations per deep answer on one engine and on four shards, per browse answer, per narrative and per search response, the memo's bound, the translator's pins)"
go test -count=1 -timeout=5m -run 'TestLiveBytesPerTuple|TestValueSize|TestListBytesCountTheLists|TestIDSpaceBoundary|TestAllocPerDeepAnswer|TestAllocPerShardedDeepAnswer|TestAllocPerBrowseAnswer|TestAllocPerSearchResponse|TestAllocPerDeepNarrative|TestMemoIsBounded|TestNarrativeKeepsNoState|TestNarrationPlanHitAllocations' . ./internal/storage ./internal/nlg

echo "== fuzz smoke (10s per target: the durability decoders, the JSON string escaper, the id-list kernel, the translator)"
go test -timeout=5m -run=NONE -fuzz='FuzzSnapshotDecode' -fuzztime=10s ./internal/wal
go test -timeout=5m -run=NONE -fuzz='FuzzWALReplay' -fuzztime=10s ./internal/wal
go test -timeout=5m -run=NONE -fuzz='FuzzDeltaDecode' -fuzztime=10s ./internal/wal
go test -timeout=5m -run=NONE -fuzz='FuzzIndexSnapshotDecode' -fuzztime=10s ./internal/invidx
go test -timeout=5m -run=NONE -fuzz='FuzzReplFrameDecode' -fuzztime=10s ./internal/repl
go test -timeout=5m -run=NONE -fuzz='FuzzAppendJSONString' -fuzztime=10s ./internal/web
go test -timeout=5m -run=NONE -fuzz='FuzzIDList' -fuzztime=10s ./internal/storage
go test -timeout=5m -run=NONE -fuzz='FuzzNarrative' -fuzztime=10s ./internal/nlg

echo "== bench smoke (compile + one iteration)"
go test -timeout=10m -run=NONE -bench=. -benchtime=1x ./...

echo "== benchmark module (vet, short tests, four-workload smoke)"
(cd benchmark && go vet ./... && go test -short -timeout=5m ./...)
bash benchmark/run.sh -smoke

echo "== sharded bench smoke (quick parity-checked runs)"
go run ./cmd/precis-bench -quick -shards -rebuild

echo "CI OK"
