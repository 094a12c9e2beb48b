package pressd

import "testing"

// TestMainRejectsBadCommandLines: every command line pressd cannot run
// is refused with a nonzero code before a port is bound, so none of
// these rows needs a free address (the -peers entries are never
// listened on).
func TestMainRejectsBadCommandLines(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown transport", []string{"-transport", "infiniband"}},
		{"unknown version", []string{"-version", "V9"}},
		{"unknown dissemination", []string{"-dissemination", "FLOOD"}},
		{"node out of range", []string{"-transport", "tcp", "-node", "3", "-peers", "127.0.0.1:1,127.0.0.1:2"}},
		{"via without udp peers", []string{"-transport", "via", "-node", "0", "-peers", "127.0.0.1:1,127.0.0.1:2", "-udp-peers", "127.0.0.1:3"}},
		{"unknown flag", []string{"-no-such-flag"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if code := Main(c.args); code == 0 {
				t.Errorf("Main(%q) = 0, want a nonzero exit code", c.args)
			}
		})
	}
}
