// Package parmcts is a Go reproduction of "Accelerating Deep Neural
// Network guided MCTS using Adaptive Parallelism" (Meng, Wang, Zu,
// Prasanna — SC 2023, arXiv:2310.05313).
//
// The library implements both tree-parallel DNN-MCTS schemes the paper
// analyses — the lock-protected shared tree (Algorithm 2) and the
// master-thread local tree with an asynchronous inference pool (Algorithm
// 3) — together with the performance models (Equations 3-6), the
// design-time profiling workflow, the O(log N) accelerator batch-size
// search (Algorithm 4), and the adaptive framework that selects among them.
//
// The two algorithms run the same rollout and differ in who schedules it
// and how the network's answer is awaited, and internal/mcts is built that
// way: one step (descend by PUCT, resolve a terminal or transposed leaf
// without the network, otherwise evaluate, expand, back up), parameterised
// by the virtual-loss mode and by inline versus awaited evaluation, and
// four schedulers over it — Serial (the calling thread, back to back),
// Shared (N ticketed goroutines on a locked tree), Local (a lock-free
// master that submits leaves and finishes them in submission order) and the
// LeafParallel baseline (serial with a K-fold evaluation fan-out);
// RootParallel composes serial sub-searches. One Search skeleton and one
// session wrap all of them, so cross-engine equivalence at concurrency 1
// and complete per-phase accounting (mcts.Config.Profile: select, eval,
// expand and backup time sum to each rollout) hold by construction.
// Every substrate is built from scratch on the standard library: the
// policy/value network (5 conv + 3 FC with training), the game
// environments behind one registry (the Scenarios section below lists the
// catalogue), the arena-backed search tree, the
// accelerator-queue plumbing, a simulated accelerator with an explicit
// latency model, and a discrete-event timeline simulator that regenerates
// the paper's latency figures deterministically.
//
// # Kernel dispatch
//
// The numeric floor of every playout is internal/tensor: channels-last
// im2col + one blocked GEMM (tensor.Dense, C = A·B plus a bias through an
// optional ReLU; MatMul is it bare) over hand-written amd64 register tiles.
// The kernel class is selected once at init by CPUID and XCR0 feature
// detection, the best the host can run — "avx512" (AVX512F+VL: six rows of C
// by four 16-lane vectors, or one masked vector for narrow outputs), "avx2"
// (six rows by two 8-lane vectors, or one masked vector) or "generic" (pure
// Go, any GOARCH, and what an amd64 host without AVX2+FMA runs) — and the
// tile is dispatched through one function variable, so the TENSOR_KERNEL env
// var (or tensor.SetKernel, or the binaries' -kernel flag) can force any
// class the host supports. Each tile is a broadcast tile: per k it loads one
// row of B and broadcasts each row's element of A, so every output in every
// class is one fp32 FMA chain over k in order (the generic class rounds each
// step once, as the hardware does). TestMatMulKernelEquivalence, the
// FuzzGEMM target and TestElementsAreStandAloneChains hold every class to
// that chain, element by element. A GEMM runs every row on its caller's
// goroutine, so one forward pass is one core's work, the single-threaded
// T_DNN_CPU of Equations 3/5. CPU parallelism lives above it, where the
// paper puts it: every CPU server's pool of inference threads (one
// evaluation per launch, Algorithm 3), EvaluatorBackend's per-core chunks
// of an accelerator's batch, the shared tree's N workers and TrainBatch's
// per-sample workers.
//
// The forward pass has a bitwise contract. An output element's bits depend
// on its own patch row and weight column alone, in every kernel class, and
// the 3x3/pad-1 gather is a special case of the general im2col; so the
// classes agree bit for bit, a reused workspace gives the bits of a fresh
// one (TestForwardBatchMatchesForward), and TestForwardGolden pins the bits
// with one row of constants for all three. Weights are held in the order the
// GEMM reads them (in x out) and converted to and from the unchanged
// checkpoint layout by nn.Save and nn.Load (TestWireLayoutUnchanged).
// nn.Network.Forward, over one sample, is the one forward: an evaluation
// (evaluate.NN.Evaluate) runs it on a pooled workspace, and every training
// step (nn.BackwardSample) runs it and reads its post-ReLU activations
// (TestTrainStepGolden pins the weights after one step). There is no batch
// dimension below evaluate: evaluate.EvaluatorBackend — the backend serve,
// cmd/train, dist.Worker, the arena gate and adaptive's fleets all build —
// runs a formed batch as one Evaluate per request, in at most Workers
// contiguous chunks on as many cores. On a CPU every server launches one
// request at a time, so only an accelerator's batches are split.
//
// fp32 is the one numeric format (EXPERIMENTS.md "Kernel dispatch" records
// why the int8 path was deleted). The accelerator seam is accel.Link, an
// evaluate.Backend that wraps the latency model of Equations 4/6 (a transfer
// that overlaps across submissions, a compute term serialised on one device
// token) around another backend: accel.NewBackend builds "hosted" (around
// EvaluatorBackend over evaluate.NN, the backend production serves through)
// or "model" (around the same backend over synthetic outputs) by name,
// binaries select one with -backend, and a real BLAS/GPU backend can later
// slot in behind evaluate.Server without touching callers. The CPU and
// accelerator platforms therefore differ by the Link alone, and the
// simulated accelerator returns the bits a served move gets
// (TestHostedMatchesProductionForward). The speedups first recorded for
// these paths are historical (1-core container); regenerate
// them on the current host with bash cmd/bench/run.sh (nn.forward_*,
// accel.hosted_*).
//
// # Multi-tenant inference service
//
// Node evaluation is organised as a service: evaluate.Server multiplexes
// requests from any number of tenant searches onto one batched backend
// (an accel.Link or a bounded CPU worker pool), forming batches by
// threshold, quorum OR flush deadline — whichever is hit first — and
// signalling each completion on the request itself, with backpressure
// (ServerConfig.MaxOutstanding) and graceful drain on Close. The quorum is
// the quiescence rule: every mcts engine registers its rollout contexts with
// the service for the length of a Search (mcts.SlotRegistrar, bracketed once
// in the shared Search skeleton), and a partial batch launches the moment it
// holds one request per registered context. Contexts whose request is
// executing still count, so lock-step tenants on an accelerator stay in one
// batch; contexts that can no longer submit (a worker out of tickets, a
// master out of budget, a finished search) leave at once. A CPU server is a
// pool of threshold 1 (evaluate.NewPool, adaptive's CPU fleets, dist.Worker
// and serve), where every request launches alone and the quorum never
// decides.
// The deadline is then only the backstop for a tenant busy in tree code, and
// carries the service's central guarantee: no submitted request waits longer
// than the deadline before its batch launches. That lets an mcts.Local master
// simply block in Client.Wait on its oldest request and keeps a straggler
// game from deadlocking on co-tenants that already finished; without a
// deadline Wait itself pushes the partial batch holding the request. One pure
// function, the unexported queue.step, states this launch rule, the Server
// steps it on every event, and TestLaunchRuleExhaustive walks its states.
// The classic single-search backends are one-tenant deployments
// of the same Server: evaluate.NewPool returns the Client of a private server
// it owns, the local-tree + accelerator queue is one Client of a
// deadline-less Server of threshold B, and the shared-tree + accelerator
// queue is mcts.Shared over a Client it evaluates through — its N
// workers are N registered slots, so the last partial batch of a move
// launches by quorum.
//
// On top of the service, internal/selfplay runs G self-play games
// concurrently — each game a tenant with its own local-tree master, all
// sharing one Server (and one lock-striped evaluation cache), feeding a
// shared replay buffer — so a training job presents the device with one
// aggregated batch stream instead of G under-filled queues. The adaptive
// framework's ConfigureFleet models that aggregation (the G-tenant
// extensions of Equations 4 and 6 in internal/perfmodel) when choosing the
// scheme and the service batch threshold, and one builder turns the decision
// into engines: a single engine (adaptive.Configure) is a fleet of one, which
// needs and gets no flush deadline, and adaptive.NewLocalFleet is the
// G-masters-on-one-worker-pool block that cmd/train and dist.Worker stand
// their self-play fleets up with. The evidence for the shared service is on
// the real engine: internal/evaluate's TestSharedServiceBeatsIndependentQueues
// holds it to fuller batches and less accelerator time than G private queues.
//
// # Persistent search sessions
//
// Every engine is a persistent per-game search session. Drivers call
// mcts.Engine.Advance after each played move — the engine's own move and
// the opponent's reply — and, with mcts.Config.ReuseTree set, the tree
// promotes the played child's whole subtree to be the new root
// (tree.RebaseRoot): a generation-tagged in-place compaction that keeps
// the index-based arena layout of Section 4.2, reclaims every abandoned
// sibling's slot, and preserves the atomic N/W/VL statistics exactly. The
// next Search then only runs the playout budget the retained visits do
// not already cover, re-mixing Dirichlet exploration noise into the
// promoted root's priors once, so every retained visit is a DNN
// evaluation the move does not re-buy (mcts.reuse_frac and
// mcts.evals_per_move in bash cmd/bench/run.sh). Rebases drain in-flight traversals (and
// their virtual loss) first, and wasted-evaluation counters are
// generation-tagged so rollouts straddling a move boundary are attributed
// rather than dropped. With ReuseTree off (the default, matching the
// paper's rebuild-every-move workload) Advance simply invalidates the
// session. Warm trees are as reproducible as cold ones: the local-tree
// master applies its evaluations in submission order, so with any number
// in flight its trajectory does not depend on arrival order (Shared with
// N > 1 is the one engine whose threads race by design). For the G-game
// fleet the effect compounds: each tenant's
// per-move evaluation demand drops by its reuse fraction, which
// multiplies directly into the shared service's aggregate throughput.
//
// # Transposition-aware search
//
// With mcts.Config.TransposeSize (the binaries' -transpose flag) the
// per-session game tree becomes a transposition-sharing DAG. A
// tree.TransTable maps each position's incrementally maintained Zobrist
// hash to shared per-state statistics plus the stored network output,
// keyed defensively: every entry carries a full state verification key
// (State.AppendStateKey, covering exactly what the hash covers), and a
// 64-bit collision replaces the resident entry rather than ever merging two
// distinct positions (TestTransTableCollisionNeverMerges and
// FuzzTransposeTable hold this under forced-collision pressure). The
// table is lock-striped and safe for any number of concurrent searches:
// per-session in the simplest configuration, shared across all G fleet
// tenants in cmd/selfplay and cmd/train so concurrent games converge on
// shared statistics and the second game to reach an opening is served the
// evaluations the first one bought. Because entries are keyed by position
// rather than model version, the table is reset whenever the serving
// weights change (cmd/selfplay's SGD round callback, and dist.Worker's swap
// barrier, where no game is in flight).
//
// UCT on a DAG needs care that UCT on a tree does not. The engines use
// the shared-Q/local-N backup rule: a node's exploitation term reads the
// shared per-state value statistics (negated to the asking parent's
// perspective), while the exploration term keeps each in-edge's LOCAL
// visit count — so a position with many parents never inflates one
// parent's visit denominator, and every in-edge still explores on its own
// schedule. Virtual loss is paired across the DAG: the shared count is
// the sum of outstanding per-edge counts, attaching a node mid-rollout
// transfers its outstanding edge VL under the node lock, and a backup
// drains shared VL exactly when it drains edge VL — the fuzz target and
// the -race CI leg require the table's outstanding VL to return to zero
// after every rollout interleaving. RebaseRoot compaction preserves
// shared-stats pointers across move boundaries (property-tested), and the
// cross-engine equivalence suite extends to the DAG: Serial, Shared,
// Local and LeafParallel at concurrency 1 stay bitwise move-identical
// with tables enabled (they run one probe sequence, in the shared step).
//
// # Model lifecycle
//
// The outer ring of the self-play system closes the loop from generated
// games back to a stronger serving model, as a continuously running
// service rather than a single experiment:
//
//   - internal/checkpoint persists versioned network snapshots: weights
//     (nn.Save) plus a JSON manifest carrying version, SGD step count,
//     training metadata and an FNV-64a weights checksum. Saves are atomic
//     (temp file + rename, manifest renamed last as the commit point), so
//     a crash never leaves a loadable half-checkpoint; LoadLatest resumes
//     a restarted training service from the newest committed version.
//
//   - evaluate.Server holds one network at a time. As in Algorithm 1,
//     weights change between rounds, never inside one, so SwapBackend
//     simply replaces the backend: submissions after it returns run on the
//     new network. dist.Worker swaps at its round barrier, where no game is
//     in flight, so no game ever mixes models and no server ever serves two
//     versions. cmd/serve never swaps: it serves the version it was started
//     with, and serves a newer checkpoint only when restarted with -ckpt.
//
//   - train.Loop overlaps self-play generation with SGD (the generator
//     runs one round ahead on its own goroutine) and, every GateEvery
//     rounds, clones the training parameters into a candidate and plays it
//     against the incumbent (arena.GateCandidate, serial engines at equal
//     budgets, while generation continues). Only a candidate clearing the
//     configurable win-rate gate is promoted: checkpointed, then sent to
//     the self-play fleet, which swaps it in at its next round barrier.
//
// The loop is deployed once, as a learner and its workers (internal/dist,
// "Distributed self-play" below). cmd/train runs it on any registered
// scenario in one process — a learner and one worker on the in-memory
// transport — resuming from its checkpoint store if one exists, and
// cmd/arena -ckpt re-audits a store's latest promotion by replaying
// latest-vs-previous at equal budgets.
//
// # Durable replay
//
// Self-play games are the expensive product of the whole pipeline — at
// production playout budgets a single game costs orders of magnitude more
// compute than the SGD steps that consume it — so internal/trajstore
// persists them: an append-only, disk-backed trajectory store of encoded
// episodes. Each episode is one length-prefixed, FNV-64a-checksummed
// frame in a segment file; the active segment rotates at a configured
// game count and seals via the same atomic commit discipline as
// internal/checkpoint (fsync, close, rename .open -> .traj, manifest
// rewritten last as the commit point). Append acknowledges only after
// write+fsync, so an acked episode survives SIGKILL. On Open the store
// re-scans and re-checksums every frame — the manifest is an accelerator,
// not trusted truth — truncating torn tails, adopting sealed segments a
// crash left out of the manifest, and rebuilding the manifest outright if
// it is corrupt; recovery can never resurrect a torn record or lose a
// committed segment. The rebuilt in-memory index serves Get at one ReadAt
// per episode, and retention drops whole segments by age or game count
// (manifest-first, so a crash mid-retention leaves garbage to delete, not
// data to lose).
//
// The crash-consistency claims are property-tested rather than asserted:
// internal/faultfs wraps the filesystem the store writes through and
// injects scripted faults — fail or drop a write, tear it mid-buffer,
// fail an fsync or rename at the Nth call — and CrashAt(n) simulates a
// SIGKILL at every mutating operation in turn. The trajstore crash-matrix
// test replays a workload against each crash point and requires every
// acknowledged episode back, byte-identical, after reopen (see
// EXPERIMENTS.md for the matrix; FuzzSegmentRead additionally feeds the
// recovery-path scanner arbitrary bytes). checkpoint shares faultfs's
// Checksum/WriteAtomic helpers and the same hardening posture: LoadLatest
// skips a corrupt newest version and falls back to the most recent
// checkpoint that still verifies.
//
// -replay-dir (cmd/train's learner) wires the store into the training
// service: the learner appends every accepted episode before its samples
// enter the ring, and on restart the newest stored games are re-ingested
// through the same augmentation path (train.Replay.Ingest) to warm the
// replay ring before generation resumes. The in-memory ring remains
// the SGD sampling source and the default without the flag; a storage
// error never stops training — the store degrades to read-only, the run
// continues on the ring, and the degradation is reported at exit.
//
// # Distributed self-play
//
// internal/dist splits the continuous loop across processes: N cmd/train
// -learner processes each run a self-play fleet (a selfplay.Driver over
// engines on one shared local inference service) and stream finished
// trajectories to one cmd/train -listen learner, which
// owns the replay ring, SGD, the arena gate (learner-local serial
// engines) and the checkpoint store, fanning each promoted checkpoint
// back out to every connected worker. Workers apply swaps only at round
// barriers, so the single-process invariant — every game finishes on the
// model it started with — survives distribution.
//
// The wire reuses the durable formats as payloads: episodes travel as
// trajstore frames, checkpoints as a manifest plus the raw weight bytes
// its FNV-64a checksum covers, and both ends re-verify every checksum, so
// transport corruption is rejected exactly like disk corruption (framing
// in API.md). The transport is one length-prefixed frame codec — over TCP
// between processes, over a net.Pipe inside one (cmd/train's default
// role, and the package's tests) — and every
// failure mode degrades gracefully: a dead worker costs the learner at
// most one round-timeout of fill, a disconnected worker generates only
// what its bounded buffer can hold and redials with backoff, and a
// restarted learner resumes from the checkpoint store and replay dir
// while workers reconnect and catch up on the current model in the hello
// exchange (topology and failure semantics in OPERATIONS.md; the
// latency-bound scaling bar is internal/dist's TestDistributedScaling).
//
// # Networked serving
//
// internal/serve puts the whole stack behind a wire: cmd/serve exposes the
// move API of API.md (POST /v1/game/new, POST /v1/game/{id}/move, GET
// /v1/game/{id}, plus /healthz and /statsz) over a session manager that
// owns one persistent warm mcts session per active game — the tree-reuse
// machinery above working for a remote user's game instead of a self-play
// worker's — under an LRU + idle-TTL eviction policy with a configurable
// session budget. Every game is a tenant of ONE shared evaluate.Server, so
// concurrent users aggregate into full inference batches exactly like the
// self-play fleet, with one shared evaluation cache and one shared
// transposition table; a process serves one model version (the -ckpt
// manifest's). Admission control rides the service's MaxOutstanding
// backpressure bound: a move that would oversubscribe the inference service
// is rejected with 429 + Retry-After instead of queuing unboundedly.
// Shutdown is graceful: SIGTERM stops admission (503), in-flight searches
// finish and are answered, then sessions and the inference service drain.
// Eviction is drain-safe down through the engine layer: mcts engines'
// Close blocks on the session mutex, so an evicted session's in-flight
// search always finishes on its own tree and is then discarded, never
// raced. internal/serve's TestLoadAgainstTarget drives a running server
// with concurrent simulated users playing full games and validates every
// response against a local rules mirror (a mis-routed move is a hard
// failure).
// OPERATIONS.md is the operator's guide: every flag of every binary, the
// eviction and backpressure knobs, drain semantics, and the /statsz field
// reference.
//
// # Scenarios
//
// Games register themselves in a catalogue (game.Register from each game
// package's init; internal/game/games links the full set) and every
// binary takes a shared -game flag whose spec is "name" or "name:size" —
// game.NewFromSpec("gomoku:9"), "othello", "hex:7" — so the whole
// pipeline (self-play fleet, arena gating, continuous training, the
// profiling and figure generators) runs on every scenario. Every game's
// state embeds one game.Board (cells, mover, result, Zobrist hash, the
// 4-plane encoding: own / opponent / last move / side-to-move, always
// from the mover's perspective) and adds only its rules. Five games ship:
//
//   - gomoku (default 15x15, the paper's benchmark): k-in-a-row by pure
//     placement, fanout size².
//   - connect4 (7x6): small fanout, gravity placement.
//   - tictactoe (3x3): gomoku's k-in-a-row at k = 3, the exhaustively
//     solvable correctness anchor.
//   - othello (default 8x8, sizes 4-16): disc placement flips every
//     bracketed line; a mover with no placement must play the explicit
//     PASS action (index size², so NumActions is size²+1) and two
//     consecutive passes end the game on disc count. Pass moves are the
//     reason the session layer cannot assume placement dynamics: a
//     forced-pass root has exactly one child, and reuse must promote
//     through it (ReuseFraction stays positive across pass plies).
//   - hex (default 11x11, sizes 2-19): connection game on a rhombus,
//     union-find over stones plus virtual edge nodes, P1 joins
//     top-bottom / P2 left-right; never draws. hex.NewSwap enables the
//     pie-rule steal variant.
//
// internal/game/gametest exports the conformance harness — one table of
// property checks (Clone independence, Legal↔LegalMoves agreement, strict
// turn alternation, encode perspective flip, hash movement on every ply,
// the MaxGameLength bound, terminal stability, an allocation-free rollout
// step) that runs against every registered game, plus the FuzzPlayout
// body behind each game package's FuzzStatePlayout target;
// internal/mcts's FuzzRebaseRoot drives subtree promotion against a
// rebuild-from-scratch reference on all scenario families. EXPERIMENTS.md
// records a cross-game throughput table (historical, 1-core container).
//
// Packages live under internal/; the runnable entry points are the
// binaries under cmd/ and examples/quickstart. cmd/figures regenerates each
// table and figure of the paper's evaluation (see EXPERIMENTS.md for the
// index and the historical results; current numbers come from bash
// cmd/bench/run.sh against cmd/bench/baseline.json).
package parmcts
