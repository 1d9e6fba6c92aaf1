#!/usr/bin/env bash
# Repo verification gate: tier-1 build+test, lint wall, bench smoke.
#
# Usage: scripts/verify.sh
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace: cargo build --release --workspace (bench + server binaries)"
cargo build --release --workspace

echo "==> workspace: cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark: build perfbench and run its self-test"
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "==> lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> lint: the simulator library without the ast-oracle feature (no exec.rs helper left that only the AST walker uses)"
cargo clippy -p barracuda-simt --lib -- -D warnings

echo "==> product builds link no AST walker: no normal dependency edge enables barracuda-simt/ast-oracle"
for MANIFEST in Cargo.toml perfbench/Cargo.toml; do
  TREE=$(cargo tree --offline --locked --manifest-path "$MANIFEST" --workspace -e normal \
    -i barracuda-simt -f '{p} {f}')
  if grep -q 'ast-oracle' <<< "$TREE"; then
    echo "verify: a normal dependency of $MANIFEST enables barracuda-simt/ast-oracle:"
    echo "$TREE"
    exit 1
  fi
done

echo "==> docs: cargo doc --no-deps (warnings denied, first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p barracuda -p barracuda-core -p barracuda-trace -p barracuda-simt \
  -p barracuda-ptx -p barracuda-instrument -p barracuda-suite \
  -p barracuda-racecheck -p barracuda-workloads -p barracuda-bench \
  -p barracuda-serve -p barracuda-fleet

echo "==> bench smoke: bench_interp --quick"
./target/release/bench_interp --quick --out /tmp/bench_interp_smoke.json
rm -f /tmp/bench_interp_smoke.json

echo "==> bench smoke: bench_engine --quick"
./target/release/bench_engine --quick --out /tmp/bench_engine_smoke.json
rm -f /tmp/bench_engine_smoke.json

echo "==> bench smoke: bench_serve --quick"
./target/release/bench_serve --quick --out /tmp/bench_serve_smoke.json
rm -f /tmp/bench_serve_smoke.json

echo "==> bench smoke: bench_detector --quick"
./target/release/bench_detector --quick --out /tmp/bench_detector_smoke.json
rm -f /tmp/bench_detector_smoke.json

echo "==> detector gates: bench_detector --gate (zero-alloc steady state on coalesced/strided/atomic/broadcast)"
./target/release/bench_detector --gate

echo "==> detector gates: lowest racing reader TID (determinism) and the chunked reader-set model"
cargo test -q -p barracuda-core --test detector_edges -- --exact \
  a_write_racing_many_readers_reports_the_lowest_reader_tid
cargo test -q -p barracuda-core --lib -- --exact \
  shadow::tests::reader_set_matches_a_btreemap_model

echo "==> shadow-check differential: core proptests against the dense reference detector"
cargo test -q -p barracuda-core --test shadow_fastpath

echo "==> pipeline parity matrix: 66 verdicts, device record counts and 15 multi-launch race sets, each race of a racy one of its program's class, over mode x interleaving (eager + 9 schedules), at the default config, a trimming history cap and 3 queues"
cargo test -q -p barracuda-suite --test pipeline_parity

echo "==> simulation digest: record streams, launch stats, final memory and Fig. 4 counts vs the checked-in golden"
cargo test -q -p barracuda-suite --test sim_digest

echo "==> simulator warp paths: warp-wide global ld/st vs the per-lane loop, same-value filter vs its spec"
cargo test -q -p barracuda-simt --lib -- --exact \
  mem::tests::lane_entry_points_match_a_per_lane_loop
cargo test -q -p barracuda-simt --lib -- --exact \
  exec::tests::same_value_filter_keeps_the_lowest_lane_of_each_pair

echo "==> co-resident scheduling: two-stream differential and scheduler properties"
cargo test -q -p barracuda-core --test two_stream_diff
cargo test -q -p barracuda-simt --test coresident_props

echo "==> threaded CLI smoke: barracuda check --threaded on a racy and an atomic kernel"
SOCK="/tmp/barracuda_verify_$$.sock"
RACY_PTX="/tmp/barracuda_verify_racy_$$.ptx"
CLEAN_PTX="/tmp/barracuda_verify_clean_$$.ptx"
cat > "$RACY_PTX" <<'EOF'
.version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 buf)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    ld.global.u32 %r1, [%rd1];
    add.s32 %r1, %r1, 1;
    st.global.u32 [%rd1], %r1;
    ret;
}
EOF
sed 's/ld.global.u32 %r1, \[%rd1\];/atom.global.add.u32 %r1, [%rd1], 1;/; /add.s32 %r1, %r1, 1;/d; /st.global.u32 \[%rd1\], %r1;/d' \
  "$RACY_PTX" > "$CLEAN_PTX"
set +e
./target/release/barracuda check "$RACY_PTX" --kernel k --grid 2 --block 32 \
  --param buf:4 --threaded > /dev/null
THREADED_RACY_CODE=$?
./target/release/barracuda check "$CLEAN_PTX" --kernel k --grid 2 --block 32 \
  --param buf:4 --threaded > /dev/null
THREADED_CLEAN_CODE=$?
set -e
[ "$THREADED_RACY_CODE" -eq 1 ] || { echo "verify: threaded racy check exit $THREADED_RACY_CODE, want 1"; exit 1; }
[ "$THREADED_CLEAN_CODE" -eq 0 ] || { echo "verify: threaded atomic check exit $THREADED_CLEAN_CODE, want 0"; exit 1; }

echo "==> server smoke: serve/client over a unix socket"
timeout 60 ./target/release/barracuda serve --socket "$SOCK" &
SERVER_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
[ -S "$SOCK" ] || { echo "verify: server socket never appeared"; exit 1; }
set +e
./target/release/barracuda client --socket "$SOCK" "$RACY_PTX" \
  --kernel k --grid 2 --block 32 --param buf:4 > /dev/null
RACY_CODE=$?
./target/release/barracuda client --socket "$SOCK" "$CLEAN_PTX" \
  --kernel k --grid 2 --block 32 --param buf:4 > /dev/null
CLEAN_CODE=$?
./target/release/barracuda client --socket "$SOCK" --shutdown
SHUTDOWN_CODE=$?
set -e
wait "$SERVER_PID"
[ "$RACY_CODE" -eq 1 ] || { echo "verify: racy request exit $RACY_CODE, want 1"; exit 1; }
[ "$CLEAN_CODE" -eq 0 ] || { echo "verify: clean request exit $CLEAN_CODE, want 0"; exit 1; }
[ "$SHUTDOWN_CODE" -eq 0 ] || { echo "verify: shutdown exit $SHUTDOWN_CODE, want 0"; exit 1; }

echo "==> server smoke: streamed verdicts over the unix socket (bounded pool)"
timeout 60 ./target/release/barracuda serve --socket "$SOCK" --pool 2 --max-engines 2 &
SERVER_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
[ -S "$SOCK" ] || { echo "verify: pooled server socket never appeared"; exit 1; }
set +e
./target/release/barracuda client --socket "$SOCK" "$RACY_PTX" \
  --kernel k --grid 2 --block 32 --param buf:4 --stream > /dev/null
STREAM_RACY_CODE=$?
./target/release/barracuda client --socket "$SOCK" "$CLEAN_PTX" \
  --kernel k --grid 2 --block 32 --param buf:4 --stream > /dev/null
STREAM_CLEAN_CODE=$?
./target/release/barracuda client --socket "$SOCK" --shutdown
STREAM_SHUTDOWN_CODE=$?
set -e
wait "$SERVER_PID"
[ "$STREAM_RACY_CODE" -eq 1 ] || { echo "verify: streamed racy exit $STREAM_RACY_CODE, want 1"; exit 1; }
[ "$STREAM_CLEAN_CODE" -eq 0 ] || { echo "verify: streamed clean exit $STREAM_CLEAN_CODE, want 0"; exit 1; }
[ "$STREAM_SHUTDOWN_CODE" -eq 0 ] || { echo "verify: streamed shutdown exit $STREAM_SHUTDOWN_CODE, want 0"; exit 1; }

echo "==> server smoke: serve/client over loopback TCP"
TCP_PORT=$(( 20000 + ($$ % 20000) ))
timeout 60 ./target/release/barracuda serve --tcp "127.0.0.1:$TCP_PORT" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$TCP_PORT") 2>/dev/null; then exec 3>&-; break; fi
  sleep 0.05
done
set +e
./target/release/barracuda client --tcp "127.0.0.1:$TCP_PORT" "$RACY_PTX" \
  --kernel k --grid 2 --block 32 --param buf:4 > /dev/null
TCP_RACY_CODE=$?
./target/release/barracuda client --tcp "127.0.0.1:$TCP_PORT" "$CLEAN_PTX" \
  --kernel k --grid 2 --block 32 --param buf:4 --stream > /dev/null
TCP_CLEAN_CODE=$?
./target/release/barracuda client --tcp "127.0.0.1:$TCP_PORT" --shutdown
TCP_SHUTDOWN_CODE=$?
set -e
wait "$SERVER_PID"
rm -f "$RACY_PTX" "$CLEAN_PTX"
[ "$TCP_RACY_CODE" -eq 1 ] || { echo "verify: tcp racy exit $TCP_RACY_CODE, want 1"; exit 1; }
[ "$TCP_CLEAN_CODE" -eq 0 ] || { echo "verify: tcp streamed clean exit $TCP_CLEAN_CODE, want 0"; exit 1; }
[ "$TCP_SHUTDOWN_CODE" -eq 0 ] || { echo "verify: tcp shutdown exit $TCP_SHUTDOWN_CODE, want 0"; exit 1; }

echo "==> server smoke: one raw newline-delimited JSON line over loopback TCP (bash /dev/tcp)"
timeout 60 ./target/release/barracuda serve --tcp "127.0.0.1:$TCP_PORT" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  if (exec 3<>"/dev/tcp/127.0.0.1/$TCP_PORT") 2>/dev/null; then exec 3>&-; break; fi
  sleep 0.05
done
exec 3<>"/dev/tcp/127.0.0.1/$TCP_PORT"
# A blank line first: both transports skip it.
printf '\n{"op":"shutdown"}\n' >&3
RAW_REPLY=""
read -r -t 30 RAW_REPLY <&3 || true
exec 3>&-
wait "$SERVER_PID"
grep -qF '"verdict":"shutting_down"' <<< "$RAW_REPLY" \
  || { echo "verify: raw tcp shutdown line got '$RAW_REPLY', want a shutting_down line"; exit 1; }

echo "==> epoch recycling: quick soak, and the differential against a core that never recycles (seeded multi-stream timelines, same races op by op)"
BARRACUDA_SOAK_LAUNCHES=200000 cargo test -q -p barracuda-core --test epoch_recycling

echo "==> serve v2: multiplexing fairness/parity + streaming/resume suites"
cargo test -q -p barracuda-serve --test multiplex
cargo test -q -p barracuda-serve --test streaming

echo "==> hostile wire frames: parser depth cap, exact u64 integers, linear-time strings, decoder proptests, line cap over both transports, bad launch geometry, oversized buffers, over-cap PTX declarations and grid-scaled register files refused without a quarantine"
cargo test -q -p barracuda --lib -- \
  statsjson::tests::nesting_past_the_depth_cap_is_an_error_not_a_stack_overflow \
  statsjson::tests::integers_parse_and_dump_exactly \
  statsjson::tests::a_long_string_parses_in_linear_time \
  statsjson::tests::parse_never_panics_on_hostile_text \
  statsjson::tests::parse_inverts_dump
cargo test -q -p barracuda-serve --lib -- \
  proto::tests::a_deeply_nested_line_is_an_error_on_a_default_stack_thread \
  proto::tests::u64_fields_round_trip_exactly \
  proto::tests::decoders_never_panic_on_hostile_lines \
  proto::tests::checks_round_trip_over_the_u64_range \
  proto::tests::every_encoding_is_one_line_for_any_text \
  wire::tests::a_line_split_across_read_timeouts_arrives_whole \
  wire::tests::a_line_past_the_cap_is_refused_before_it_is_buffered
cargo test -q -p barracuda-serve --test server -- \
  an_oversized_socket_line_is_refused_without_touching_other_sessions \
  an_oversized_tcp_line_is_refused_without_touching_other_sessions \
  a_deeply_nested_socket_line_is_an_error_and_other_sessions_keep_their_verdicts \
  a_deeply_nested_tcp_line_is_an_error_and_other_sessions_keep_their_verdicts \
  a_zero_grid_socket_request_is_an_error_and_no_engine_is_quarantined \
  an_oversized_buffer_socket_request_is_an_error_and_no_engine_is_quarantined \
  a_hostile_declaration_socket_request_is_an_error_and_the_server_keeps_serving \
  a_grid_scaled_register_file_socket_request_is_an_error_and_the_server_keeps_serving
cargo test -q -p barracuda-ptx --test parse_total
cargo test -q -p barracuda-fleet --lib journal::tests::repro_seeds_survive_the_journal_exactly

echo "==> chaos soak: concurrent retrying clients and injected panics against one server"
cargo test -q -p barracuda-serve --test soak

echo "==> fleet smoke: crash-isolated corpus run + resume + quarantine"
FLEET_DIR="/tmp/barracuda_verify_fleet_$$"
rm -rf "$FLEET_DIR"
mkdir -p "$FLEET_DIR/corpus"
cat > "$FLEET_DIR/corpus/clean.ptx" <<'EOF'
.version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 buf)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    atom.global.add.u32 %r1, [%rd1], 1;
    ret;
}
EOF
cat > "$FLEET_DIR/corpus/racy.ptx" <<'EOF'
.version 4.3
.target sm_35
.address_size 64
.visible .entry k(.param .u64 buf)
{
    .reg .b32 %r<4>;
    .reg .b64 %rd<4>;
    ld.param.u64 %rd1, [buf];
    ld.global.u32 %r1, [%rd1];
    add.s32 %r1, %r1, 1;
    st.global.u32 [%rd1], %r1;
    ret;
}
EOF
cp "$FLEET_DIR/corpus/clean.ptx" "$FLEET_DIR/corpus/ab_panic.ptx"
cp "$FLEET_DIR/corpus/clean.ptx" "$FLEET_DIR/corpus/hg_hang.ptx"
set +e
./target/release/barracuda fleet --ptx-dir "$FLEET_DIR/corpus" \
  --ptx-grid 2 --ptx-block 32 --ptx-param buf:16 \
  --journal "$FLEET_DIR/fleet.jsonl" --report-json "$FLEET_DIR/report.json" \
  --jobs 4 --timeout-ms 3000 --kill-grace-ms 1000 --retries 1 --quarantine-after 99 \
  --chaos-abort-match ab_ --chaos-hang-match hg_ > /dev/null
FLEET_CODE=$?
set -e
[ "$FLEET_CODE" -eq 1 ] || { echo "verify: fleet run exit $FLEET_CODE, want 1 (racy)"; exit 1; }
for WANT in '"ok":1' '"racy":1' '"panicked":1' '"timed_out":1' '"reconciled":true'; do
  grep -qF "$WANT" "$FLEET_DIR/report.json" \
    || { echo "verify: fleet report missing $WANT"; cat "$FLEET_DIR/report.json"; exit 1; }
done
set +e
RESUME_OUT=$(./target/release/barracuda fleet --ptx-dir "$FLEET_DIR/corpus" \
  --ptx-grid 2 --ptx-block 32 --ptx-param buf:16 \
  --journal "$FLEET_DIR/fleet.jsonl" --report-json "$FLEET_DIR/report2.json" \
  --jobs 4 --timeout-ms 3000 --kill-grace-ms 1000 --retries 1 --quarantine-after 99 \
  --chaos-abort-match ab_ --chaos-hang-match hg_ --resume)
RESUME_CODE=$?
set -e
[ "$RESUME_CODE" -eq 1 ] || { echo "verify: fleet resume exit $RESUME_CODE, want 1"; exit 1; }
echo "$RESUME_OUT" | grep -q "executed 0 / skipped 4" \
  || { echo "verify: fleet resume re-ran finished targets: $RESUME_OUT"; exit 1; }
cmp -s "$FLEET_DIR/report.json" "$FLEET_DIR/report2.json" \
  || { echo "verify: resumed fleet report differs from original"; exit 1; }
mkdir -p "$FLEET_DIR/qcorpus"
cp "$FLEET_DIR/corpus/clean.ptx" "$FLEET_DIR/corpus/ab_panic.ptx" "$FLEET_DIR/corpus/hg_hang.ptx" \
  "$FLEET_DIR/qcorpus/"
set +e
./target/release/barracuda fleet --ptx-dir "$FLEET_DIR/qcorpus" \
  --ptx-grid 2 --ptx-block 32 --ptx-param buf:16 \
  --journal "$FLEET_DIR/quarantine.jsonl" --report-json "$FLEET_DIR/quarantine.json" \
  --jobs 4 --timeout-ms 3000 --kill-grace-ms 1000 --retries 5 --quarantine-after 1 \
  --chaos-abort-match ab_ --chaos-hang-match hg_ > /dev/null
QUAR_CODE=$?
set -e
[ "$QUAR_CODE" -eq 4 ] || { echo "verify: fleet quarantine exit $QUAR_CODE, want 4"; exit 1; }
grep -qF '"quarantined":2' "$FLEET_DIR/quarantine.json" \
  || { echo "verify: fleet quarantine report missing benched targets"; cat "$FLEET_DIR/quarantine.json"; exit 1; }
rm -rf "$FLEET_DIR"

echo "verify: OK"
