# Sharded DES at scale: a 1024-rank, 20-step Sedov run through
# `amrcplx run` must exit 0 and print byte-identical stdout under
# --des-shards=1, 2 and 4. At this size cross-shard deliveries arrive
# while the sending shard is still posting more, so any delivery state
# shared between shards would race (and could crash the run).
# Runs under every AMR_SANITIZE build tree; the thread-sanitizer tree is
# the one that would catch a cross-shard data race. Invoked from
# bench/CMakeLists.txt; -DAMRCPLX names the amrcplx binary.
set(args run --workload=sedov --ranks=1024 --steps=20)

set(reference "")
foreach(shards 1 2 4)
  execute_process(
    COMMAND "${AMRCPLX}" ${args} --des-shards=${shards}
    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--des-shards=${shards} run failed (exit ${rc})")
  endif()
  if(shards EQUAL 1)
    set(reference "${out}")
  elseif(NOT out STREQUAL reference)
    message(FATAL_ERROR "stdout differs between --des-shards=1 and "
                        "--des-shards=${shards}: shard partitioning "
                        "changed the simulated answer")
  endif()
endforeach()
