#!/usr/bin/env bash
# CI gate: vet, build, the full test suite under the race detector, and a
# doubled run of the chaos suite.
#
# The race run is the point of this script — concurrent queries against
# mutations, the answer cache, and the profile registry are all exercised by
# dedicated concurrency tests (race_test.go, internal/anscache) that only
# bite under -race.
#
# The chaos suite (chaos_test.go) arms internal/faultinject and hammers
# the engine with 32 goroutines while errors, panics, and latency fire at
# the injection sites; -count=2 reruns it to catch state leaking between
# runs (a fault plan left armed, a poisoned cache). Its panic cases
# (TestChaosPanicsBecomeErrInternal) cover the single engine and four shards:
# a panic inside one shard's visit of a scatter must come back as
# ErrInternal, not take the process down; TestChaosPanicRunsOnCallersGoroutine
# holds that panic's stack to the caller's Engine.Query frame, so a query
# that left its caller's goroutine fails there. The full-suite pass
# above runs it with -short (scaled-down iteration counts) to keep tier-1
# wall clock flat; the dedicated pass below runs it at full strength.
#
# The crash-torture pass (persist_crash_test.go) kills the WAL at every
# byte offset and bit-flips both durability files; the -short run above
# strides through offsets, this dedicated pass covers every single one
# under -race. The fuzz smoke then runs the durability fuzz targets
# (snapshot decoder, WAL replayer, delta decoder, index-snapshot decoder, and
# FuzzCompact: base snapshots mutated under a fixed delta, the compaction
# merge refusing exactly where decoding and applying refuses, with the same
# classification, and writing the same bytes otherwise; and FuzzIndexPatch:
# index snapshots mutated under a fixed set of edits, the compaction's index
# patch refusing wherever the decoder refuses — and besides only tokens out of
# order — and otherwise writing what decoding, applying and encoding writes),
# the JSON string escaper of /api/search (against encoding/json; its seeds put
# every byte it must look at on both sides of a word boundary), the
# sorted-id-list kernel behind every resident id list (FuzzIDList: a byte
# string run as insert / remove / union / intersect / append-to operations at
# both widths against a set), the row codec (FuzzRowCodec: generated schemas
# and values — Ints in FLOAT columns, stored as Floats or refused beyond 2^53,
# NaN, ±Inf, −0, empty, multi-byte and invalid UTF-8 text, NULLs — stored as
# records and read back through Value, AppendText, Get, every index and a
# result relation mapped onto the records, against the values they were made
# from, converted to their columns' types), the translator (FuzzNarrative: fuzzed
# sentences and labels on a hand-built G′, indexed and not, against the
# reference walk — the same bytes or the same error), the SELECT executor
# (FuzzSelect: a byte string decoded as a statement — an id list, shuffled,
# repeating, naming deleted and never-allocated ids; a column, indexed,
# unindexed, the key or unknown, and its values, NULL, NaN, ±Inf, −0, Ints
# probing a FLOAT column and Floats an INT one, each converted to the
# column's type, and numbers at or beyond 2^53 among them; an id set to
# exclude; a projection, unknown columns and none among its choices; a LIMIT —
# on an indexed table and an unindexed copy, against the reference scan — the
# same ids and values, cut to the limit, or the same error;
# TestSelectMatchesReferenceScan decodes seeded strings the same way) and the
# whole query
# pipeline (FuzzQuery: arbitrary query strings under fuzzed degree and
# cardinality constraints and strategy on a small synthetic engine — no panic,
# a sub-database of the base, never Partial without a budget, and the same
# tuples and narrative on a second run)
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
# lock against captured copy-on-write state. The compaction merge rides
# in the same step (internal/wal compact_test.go: seeded chains of one to
# eight deltas over dataset.Kinds and the wal test schemas, merged from
# bytes, against decoding the base, applying the deltas and encoding; the
# index carried forward against a rebuild; the index patch against decoding
# the base's index, applying the edits and encoding (internal/invidx
# TestIndexPatchMatchesDecodeApplyEncode); a merge given no room before its
# base refusing rather than overwriting bytes it has still to read; crafted deltas that would hold
# a key or an id twice, refused with the old chain kept; a follower's
# flattened snapshot against decoding the chain and replaying its logs),
# with the root's key-cycle regression (a cycle and a swap of primary keys
# within one interval, through a delta and Open, a follower bootstrap, and
# a compaction and Open) and the first compaction of a fresh directory
# carrying its seed index forward.
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
# partitioners and shard counts; kills and reopens every shard directory
# mid-storm; and storms the coordinator from 24 goroutines under rotating
# scatter/gather/apply faults — all under -race, because queries gather
# per-shard results while mutations route concurrently.
#
# The generator oracle step (internal/core differential_test.go) diffs the
# set-at-a-time result-database generator against the test-only
# statement-per-value / statement-per-tuple reference over datasets ×
# strategies × cardinalities × weights × budgets × {single engine, 1/3/4
# shards}, each with DBGenOptions.Workers at 1, 2 and 8 (the field the
# benchmark's replay still sets, which generation must not read). The
# response-encoder oracle rides in the same
# step (internal/web TestSearchBodyMatchesEncodingJSON: the hand-written
# /api/search encoder against encoding/json over datasets × strategies ×
# weights × cardinalities, partial, traced, cached and hand-built answers,
# with the Content-Length and the keep-alive connection checked), next to the
# translator's reference-walk differential it shares the answers with. The
# whole-repository pass above runs it -short (one Workers value per fetcher);
# this step runs the full matrix under -race beside the other oracles, because
# the exclusion predicate reads the
# output relation R'j itself, on every shard of a scatter, and only the apply
# phase may write it.
# The sqlx executor's differential against its reference scan, its hash-probe
# plan and its excluded id set (TestExclude), and the excluded set through
# shard.Fetcher, ride along, with the gather's own oracle
# (TestFetcherMatchesSingleEngine: seeded random id lists — shuffled,
# repeating, naming ids that are gone — alone and beside a probe or an
# excluded set, probing statements and probes through 1-5 hash and range
# shards against sqlx.Engine on the unpartitioned database, row for row; the
# narrowed copies of a statement are made and executed shard by shard, and
# TestFetcherLeavesStatementAlone runs one statement through four fetchers at
# once and holds it unwritten), and so do the two statements of what Round-Robin
# reads and chooses: TestProbeMatchesSpec (Fetcher.Probe against a
# plain-slice spec, on the engine and on 1-4 hash and range shards) and
# TestRoundRobinRounds; with them
# TestBlockLookupsMatchReference, the one gather loop behind IN and Probe
# against the reference scan around every block boundary. One rule of
# equality holds there and on the write path: a column's declared type
# decides the kind of every value it stores, and a value probing a column is
# converted to that type first — TestProbeAgreesWithResultMatches holds a
# Probe and D′'s partner lookup (AppendMatches, DistinctValues) to one answer
# on a FLOAT column given Ints and Floats, TestNumericLiteralsAcrossKinds an
# indexed column to its unindexed copy for every kind of probe, and
# TestCheckWriteConvertsKeysAndReferences the write check's key and reference
# lookups to the same conversion.
#
# The schema-generator oracle rides in the same step: TestSchemaMatchesSpec
# diffs core.GenerateSchema against internal/spec — a package only tests
# import: every acyclic path enumerated, sorted, cut where the constraint says
# — over random graphs × weightings × seed sets × degree constraints, the cold
# traversal, the first call on a frozen graph and the memo hit each compared.
# Beside it TestDatabaseMatchesSpec diffs core.GenerateDatabaseOpts against the
# spec's Figure 5 — seeds, join order and postponement, NaïveQ, Round-Robin and
# Auto, per-relation and total caps — on the engine and on 1-4 hash and 2-4
# range shards. Both run over core's differential datasets, the mixed-kind one
# (internal/dataset Kinds: Floats, NaN and ±Inf in FLOAT columns, a FLOAT
# key an INT column references, BOOLs, NULLs in join columns, odd text) among
# them. TestEnginesMatchSpec
# (root) holds every engine shape to the same spec — New, NewSharded over 2
# and 4 hash and 3 range shards, an engine recovered from a snapshot, a delta
# and a log tail, and a follower — G′, D′'s ids in insertion order and every
# D′ value, kind-exactly, against the base it came from. TestWritesMatchSpec
# holds the write path of a single, a persistent and 2/4 hash/range sharded
# engine to internal/spec's mutation model over seeded scripts.
# TestOpenKindsMigration opens directories the previous engine wrote
# (testdata/kinds-migration): an Int in a FLOAT column, in the log and in a
# snapshot, is converted; Int(2^53+1) there and a FLOAT key holding Int(1)
# and Float(1.0) are refused with typed errors, as DESIGN.md §7 states.
#
# The inverted-index oracle step (internal/invidx differential_test.go)
# diffs the sorted-slice index against the test-only map-of-maps reference
# (reference_test.go) over seeded AddTuple/RemoveTuple sequences — lookups,
# phrases (three- and four-word ones whose rarest word comes first, in the
# middle and last among them), synonyms, document frequencies, counts,
# snapshot bytes, New ≡ NewParallel for 1/2/3/8 workers — and
# TestLookupMatchesSpec holds Lookup to internal/spec's scan of every string
# value over a generated movies database: every title, actor and director
# name, as stored, word by word, shuffled and repeated, each term also
# punctuated and double-spaced: a phrase matches a value whose tokens hold
# the term's as one contiguous run, whatever separates them. A phrase gathers its
# words' posting lists at a location and intersects them shortest first, so a
# title's serial or a name's surname narrows the candidates before the common
# words are read; the kernel (storage/idlist.go) walks two lists of like
# length, skips ⌈√ratio⌉ ids at a time through the longer from 1 : 8, and
# searches it by doubling and halving from 1 : 64. The differential is what
# holds the order to the answer (reversing it is an equivalent mutant: the
# same ids, more slowly). It runs under -race because of
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
# lists' own lengths, TestRowBytesCountTheRows its row_bytes to a recount of
# the records by their format (one engine and four shards), TestRecordHoldsNoPointer
# a record to one pointer-free allocation, and TestIDSpaceBoundary (root and internal/storage) the
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
# TestCompactHoldsEachFileOnce (internal/wal) pins what BenchmarkCompact's
# compaction allocates below its base snapshot plus the base's index plus a
# slack per change: the merge reads the base into the tail of its own output
# buffer and the index is patched as bytes, so a second copy of either file or
# an index decoded into an invidx.Index fails here.
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
# Engine.Insert/Update, tuples held across a WAL-failure rollback, result rows
# that read their own tuples' records and keep reading them across updates,
# answer rows that are the base records themselves on every engine shape —
# gapped projections included — and outlive an Update or Delete of their
# tuples;
# ownership_web_test.go: the base equal to its clone after queries, narratives
# and /api/search bodies) ride in
# the whole-repository -race pass with the rollback suites, as do the batch
# path's: storage's InsertRow against InsertWithID and AppendLookups against
# a scan (insert_test.go), shard's TestPartitionSharesSourceRecords, core's
# TestFaultMidJoinLeavesExactPrefix, and the root's
# TestChaosMidGenerationFault.
# D′ is a storage.Result whose join indexes are built once — a driving
# column's before the join that reads it, the arrival columns' when
# generation ends — and read by the translator and by every request a cached
# answer serves at once; only -race can hold that to "never built on read",
# so the generator-oracle step runs TestResultDatabaseReadsArePure
# and TestResultJoinIndexMatchesScan (the join index against an exact-match
# scan on FLOAT, INT, TEXT and BOOL columns, NULL, NaN and −0 included, each
# probed with values of every kind converted to its type), with the hash
# probe's plan tests and
# TestRoundRobinProbeReadsNoTuple.
#
# The bench smoke step compiles and runs every benchmark exactly once
# (-benchtime=1x) with no tests (-run=NONE). It does not measure anything;
# it keeps the benchmark code itself from rotting — a benchmark that no
# longer compiles or fatals on its first iteration fails CI here instead
# of on the next perf investigation. The seam benchmarks of the two hot
# stages (internal/core BenchmarkGenerateDeep, internal/nlg
# BenchmarkNarrativeDeep) are picked up here with everything else, and so are
# internal/storage's BenchmarkGather and BenchmarkLookups, each the batch
# path beside the per-tuple or per-value loop it replaced, BenchmarkInsertRow
# (a shared record beside InsertWithID's copy), internal/web's BenchmarkAppendJSONString, and internal/wal's
# BenchmarkCompact (one compaction of a churned seven-delta chain: the merged
# snapshot and the index carried forward, with their allocations).
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
# — the guard on there being one apply path and one load path — and
# TestReplDurableFollowerCrossesRotations, the guard on there being one
# checkpoint protocol: a durable follower mirrors DefaultCompactEvery+2
# primary rotations through the engine's checkpoint (a delta each, one
# compaction with its index), restarts with no snapshot transfer, and is
# promoted, checkpointed and reopened.
#
# The mutant step (scripts/mutate, over scripts/mutants.txt) breaks the
# statement executor, the shard routing and NaïveQ's exclusion one mutant at a
# time in a copy of the module — the excluded set ignored, a NULL probe
# matching, a value not converted to its column's type on write, on an index
# probe or in D′'s partner lookup, the 2^53 bound off by one, LIMIT off by
# one, an id list visited
# sorted, a shard's bucket losing duplicates, a phrase's check dropped, the
# intersection's skip off by one, a WAL payload CRC never checked, among
# others — and fails unless
# the tests each line names fail on it: a test that no longer sees what it is
# there to see fails CI here. Like this script, the runner is not counted by
# scripts/loc.sh.
#
# The last step runs the figure suite of cmd/precis-bench at -quick
# (Figures 7-9, the cost model, the running example, the baselines and the
# ablations), so the one remaining harness CLI still runs end to end.
#
# The line-count report (scripts/loc.sh) prints non-test Go lines per
# package. It is a report, not a gate: the table ROADMAP.md quotes, printed
# where a PR that grows a package shows it. The test-time ledger
# (scripts/testtime.sh) is its twin for time: it runs the tier-1 suite
# (go test ./..., no -race) once more under -json and prints seconds per
# package and the ten slowest tests — also a report, not a gate.
#
# Every step that names its tests goes through gotest (or fuzz), which first
# asks go test -list whether each |-separated part of the pattern still names a
# test: go test -run and -fuzz pass silently when nothing matches, so a test
# renamed or deleted would leave its step green and running nothing.
#
# Every go test step carries an explicit -timeout so a deadlocked suite
# (the usual failure mode of replication and chaos bugs) kills the step
# instead of hanging the CI job until the outer scheduler reaps it.
set -euo pipefail
cd "$(dirname "$0")/.."

# gotest PATTERN ARGS... is go test ARGS... -run PATTERN, after go test -list
# has shown that every |-separated part of PATTERN names a test in ARGS'
# packages: go test -run passes without a word when nothing matches, so a
# renamed or deleted test would otherwise leave its step green and empty.
gotest() {
	local pattern=$1 listed part
	shift
	listed=$(go test "$@" -list "$pattern" | grep -E '^(Test|Fuzz|Example)' || true)
	for part in ${pattern//|/ }; do
		if ! grep -qE -- "$part" <<<"$listed"; then
			echo "ci.sh: -run pattern '$part' matches no test in $*" >&2
			exit 1
		fi
	done
	go test "$@" -run "$pattern"
}

# fuzz TARGET PKG runs the fuzz target for 10s on top of its corpus, after
# checking that it exists (go test -fuzz passes when nothing matches too).
fuzz() {
	if ! grep -qx -- "$1" <<<"$(go test -list "^$1\$" "$2")"; then
		echo "ci.sh: no fuzz target $1 in $2" >&2
		exit 1
	fi
	go test -timeout=5m -run=NONE -fuzz="^$1\$" -fuzztime=10s "$2"
}

echo "== non-test Go lines per package (report only)"
bash scripts/loc.sh

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race (-short chaos; includes the role table)"
go test -race -count=1 -short -timeout=10m ./...

echo "== chaos suite -race -count=2 (full strength; panics at every site, single engine and 4 shards)"
gotest 'TestChaos' -race -count=2 -timeout=10m .

echo "== crash torture -race (full strength: every WAL byte offset)"
gotest 'TestCrashTorture' -race -count=1 -timeout=10m .

echo "== incremental checkpoint torture -race (chain depths, every chain/index byte)"
gotest 'TestDeltaChain|TestPersistedIndex|TestKeyCycle|TestFirstCompaction' -race -count=1 -timeout=15m .
gotest 'TestDelta|TestStore|TestApplyDelta|TestIndexSnapshot|TestIndexPatch|TestCompact|TestFlattened' -race -count=1 -timeout=10m ./internal/wal ./internal/invidx

echo "== replication convergence -race (full strength: swept link cuts; one history, four routes)"
gotest 'TestRepl|TestChaosReplicatedStorm' -race -count=1 -timeout=10m .
go test -race -count=1 -timeout=10m ./internal/repl

echo "== quorum torture -race (primary kills after every acked write, ack faults)"
gotest 'TestQuorum|TestFollowerResume' -race -count=1 -timeout=10m .

echo "== failover torture -race (kill/promote after every acked write, fencing, stats readers across Promote)"
gotest 'TestFailover|TestPromote|TestDeposed|TestAutoFailover' -race -count=1 -timeout=10m .

echo "== sharding -race (byte-parity sweep, crash recovery, faulted storm)"
gotest 'TestSharded' -race -count=1 -timeout=10m .
go test -race -count=1 -timeout=5m ./internal/shard

echo "== generator oracle -race (full matrix: engine + 1/3/4 shards)"
gotest 'TestGeneratorMatchesReference|TestRoundRobinStatementsPerJoin|TestRoundRobinProbeReadsNoTuple|TestRoundRobinRounds|TestQueriesCounts|TestSchemaMatchesSpec|TestDatabaseMatchesSpec|TestResultDatabaseReadsArePure' -race -count=1 -timeout=10m ./internal/core
gotest 'TestResultJoinIndexMatchesScan' -race -count=1 -timeout=5m ./internal/storage
gotest 'TestEnginesMatchSpec|TestWritesMatchSpec|TestWritesOpenWouldRefuseAreRefused|TestOpenKindsMigration' -race -count=1 -timeout=10m .
gotest 'TestSelectMatchesReferenceScan|TestHashProbePlan|TestBlockLookupsMatchReference|TestProbeMatchesSpec|TestProbeAgreesWithResultMatches|TestNumericLiteralsAcrossKinds|TestCheckWriteConvertsKeysAndReferences|TestColTypeConvertAndKey|TestExclude|TestFetcherLeavesStatementAlone|TestFetcherIDSetPredicate|TestFetcherMatchesSingleEngine|TestFetcherRefusesMisplacedTuple' -race -count=1 -timeout=5m ./internal/sqlx ./internal/shard ./internal/storage
gotest 'TestNarrativeMatchesReference|TestSearchBodyMatchesEncodingJSON|TestAppendJSONString' -race -count=1 -timeout=5m ./internal/nlg ./internal/web

echo "== memo -race (warm = cold on every engine shape, concurrent first use of G′ and of its narration plan, macros, label errors)"
gotest 'TestMemo|TestProfileQueriesShare' -race -count=1 -timeout=10m .

echo "== inverted-index oracle -race (sorted-slice postings vs map-of-maps reference, Lookup vs the spec's scan)"
gotest 'TestIndexMatchesReference|TestLookupMatchesSpec|TestLookupResultsDoNotAliasIndex|TestIndexSnapshotRejectsMalformedPostings|TestFuzzCorpus' -race -count=1 -timeout=10m ./internal/invidx

echo "== layout pins (no -race: value and slot sizes, pointer-free records, live bytes per tuple, row_bytes and list_bytes, the id-space boundary, bytes and allocations per deep answer on one engine and on four shards, per browse answer, per narrative and per search response, the memo's bound, the translator's pins, a compaction's bytes)"
gotest 'TestLiveBytesPerTuple|TestValueSize|TestRecordHoldsNoPointer|TestRowBytesCountTheRows|TestListBytesCountTheLists|TestIDSpaceBoundary|TestAllocPerDeepAnswer|TestAllocPerShardedDeepAnswer|TestAllocPerBrowseAnswer|TestAllocPerSearchResponse|TestAllocPerDeepNarrative|TestMemoIsBounded|TestNarrativeKeepsNoState|TestNarrationPlanHitAllocations|TestCompactHoldsEachFileOnce|TestCheckWriteInsertAllocatesNothing' -count=1 -timeout=5m . ./internal/storage ./internal/nlg ./internal/wal

echo "== fuzz smoke (10s per target: the durability decoders, the compaction merge and index patch, the JSON string escaper, the id-list kernel, the row codec, the translator, the SELECT executor, the query pipeline)"
fuzz FuzzSnapshotDecode ./internal/wal
fuzz FuzzWALReplay ./internal/wal
fuzz FuzzDeltaDecode ./internal/wal
fuzz FuzzCompact ./internal/wal
fuzz FuzzIndexSnapshotDecode ./internal/invidx
fuzz FuzzIndexPatch ./internal/invidx
fuzz FuzzReplFrameDecode ./internal/repl
fuzz FuzzAppendJSONString ./internal/web
fuzz FuzzIDList ./internal/storage
fuzz FuzzRowCodec ./internal/storage
fuzz FuzzNarrative ./internal/nlg
fuzz FuzzSelect ./internal/sqlx
fuzz FuzzQuery .

echo "== bench smoke (compile + one iteration)"
go test -timeout=10m -run=NONE -bench=. -benchtime=1x ./...

echo "== benchmark module (vet, short tests, four-workload smoke)"
(cd benchmark && go vet ./... && go test -short -timeout=5m ./...)
bash benchmark/run.sh -smoke

echo "== mutants (each must fail the tests scripts/mutants.txt names)"
go run ./scripts/mutate

echo "== figure suite (precis-bench -quick)"
go run ./cmd/precis-bench -quick

echo "== test-time ledger (report only: seconds per package, the ten slowest tests)"
bash scripts/testtime.sh

echo "CI OK"
