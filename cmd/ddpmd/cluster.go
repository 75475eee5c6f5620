package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/cluster"
)

// runCluster dispatches the cluster subcommands (just `status` today).
func runCluster(args []string) {
	if len(args) < 1 || args[0] != "status" {
		fmt.Fprintln(os.Stderr, "usage: ddpmd cluster status [-http addr]")
		os.Exit(2)
	}
	runClusterStatus(args[1:])
}

// runClusterStatus renders one instance's /cluster document: ring
// generation, fleet liveness as this instance sees it, and the
// forwarding/gossip counters.
func runClusterStatus(args []string) {
	fs := flag.NewFlagSet("ddpmd cluster status", flag.ExitOnError)
	var (
		httpAddr = fs.String("http", "127.0.0.1:7421", "admin plane address of the daemon")
		timeout  = fs.Duration("timeout", 5*time.Second, "HTTP timeout")
	)
	fs.Parse(args)

	var st cluster.Status
	code, _, err := adminGet(&http.Client{Timeout: *timeout}, *httpAddr, "/cluster", &st)
	if code == http.StatusNotFound {
		fmt.Printf("ddpmd at %s: cluster mode off\n", *httpAddr)
		return
	}
	if err != nil {
		fatal(fmt.Errorf("cluster status: %w", err))
	}

	fmt.Printf("ddpmd cluster at %s — self %s (member %x), ring v%d, %d/%d alive\n",
		*httpAddr, st.Self, st.MemberID, st.RingVersion, st.Alive, len(st.Members))
	tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  member\taddr\talive\tlast heard\tlast gossip\tring\tfwd queued\tdelivered\tlost")
	for _, m := range st.Members {
		who := fmt.Sprintf("%x", m.ID)
		if m.Self {
			who += " (self)"
		}
		heard, gossip := "-", "-"
		if !m.Self {
			heard = fmt.Sprintf("%dms ago", m.LastHeardMs)
			switch {
			case m.LastGossipMs < 0:
				gossip = "never"
			default:
				gossip = fmt.Sprintf("%dms ago", m.LastGossipMs)
			}
		}
		fmt.Fprintf(tw, "  %s\t%s\t%v\t%s\t%s\tv%d\t%d\t%d\t%d\n",
			who, m.Addr, m.Alive, heard, gossip, m.RingVersion, m.Queued, m.Delivered, m.Lost)
	}
	tw.Flush()
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  forwarded out\t%d\n", st.ForwardedOut)
	fmt.Fprintf(tw, "  forwarded in\t%d\n", st.ForwardedIn)
	fmt.Fprintf(tw, "  forward dropped\t%d\n", st.ForwardDropped)
	fmt.Fprintf(tw, "  forward lost\t%d\n", st.ForwardLost)
	fmt.Fprintf(tw, "  forward queue\t%d\n", st.ForwardQueue)
	fmt.Fprintf(tw, "  gossip rounds\t%d (%d failed exchanges)\n", st.GossipRounds, st.GossipFails)
	fmt.Fprintf(tw, "  blocklist seq\t%d\n", st.BlocklistSeq)
	fmt.Fprintf(tw, "  owned victims\t%d (replicas stored %d, seeds applied %d, takeovers %d)\n",
		st.OwnedVictims, st.StoredReplicas, st.SeedsApplied, st.Takeovers)
	tw.Flush()
}
