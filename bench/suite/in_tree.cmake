# Passed to the repository's configure as CMAKE_PROJECT_INCLUDE, so that
# bench/suite joins the tree (as bench-suite/) right after the top-level
# project() call. Its links to targets the rest of the tree defines later
# resolve when the build is generated.
enable_testing()
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} ${CMAKE_BINARY_DIR}/bench-suite)
