package buildtags

// Pick is declared once per architecture: this file by its _amd64 suffix,
// pick_other.go by its build line.
func Pick() string { return "amd64" }
