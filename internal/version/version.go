// Package version holds the single build-version constant shared by every
// emprof command (emprof, emsim, embench, emprofd) and reported by the
// profiling service's /v1/metrics endpoint.
package version

// Version is the repository build version. Bump it when the capture
// format, the service API, or the profiler's default configuration
// changes in a way callers can observe.
const Version = "0.3.0"
