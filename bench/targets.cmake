# Table/figure reproduction harnesses (E*) print paper-style tables and run
# as plain executables; the ablation microbenches (A2, A3) use
# google-benchmark. Included from the top-level CMakeLists (see note there).
# Sources are relative to bench/; the default is <name>.cpp.
function(mobivine_bench name)
  set(sources ${ARGN})
  if(NOT sources)
    set(sources ${name}.cpp)
  endif()
  list(TRANSFORM sources PREPEND ${CMAKE_SOURCE_DIR}/bench/)
  add_executable(${name} ${sources})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE mobivine_core mobivine_plugin)
  target_compile_definitions(${name} PRIVATE
    MOBIVINE_DESCRIPTOR_DIR="${MOBIVINE_DESCRIPTOR_DIR}")
endfunction()

mobivine_bench(bench_fig10_invocation)
mobivine_bench(bench_e2_complexity)
mobivine_bench(bench_e3_portability)
mobivine_bench(bench_e4_maintenance)
mobivine_bench(bench_a1_polling)
mobivine_bench(bench_a4_extension)
mobivine_bench(bench_a5_detection)

mobivine_bench(bench_wallclock_throughput)

# The serving-plane scenario driver: one subcommand per plane.
mobivine_bench(bench_scenarios
  scenarios/main.cpp scenarios/common.cpp scenarios/gateway.cpp
  scenarios/failover.cpp scenarios/wire.cpp scenarios/cluster.cpp
  scenarios/push.cpp scenarios/script.cpp scenarios/fleet.cpp)
target_link_libraries(bench_scenarios PRIVATE mobivine_cluster mobivine_fleet)

mobivine_bench(bench_a2_descriptor)
target_link_libraries(bench_a2_descriptor PRIVATE benchmark::benchmark)
mobivine_bench(bench_a3_bridge)
target_link_libraries(bench_a3_bridge PRIVATE benchmark::benchmark)
