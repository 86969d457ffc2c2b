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

# The paper harnesses also run under ctest: each exits 1 when its claim's
# verdict is VIOLATED (A4 is a smoke case that must exit 0).
foreach(harness IN ITEMS bench_fig10_invocation bench_e2_complexity
                         bench_e3_portability bench_e4_maintenance
                         bench_a1_polling bench_a4_extension
                         bench_a5_detection)
  mobivine_bench(${harness})
  mobivine_run_test(paper ${harness})
endforeach()

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
