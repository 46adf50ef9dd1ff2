//go:build !amd64

package buildtags

// Pick is the declaration every other architecture builds.
func Pick() string { return "other" }
