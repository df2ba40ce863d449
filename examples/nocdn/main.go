// NoCDN: the paper's §IV-B workflow (Fig. 2) over real HTTP servers. A
// content provider recruits three residential peers, a client downloads a
// page via the wrapper protocol with hash verification, one peer turns
// malicious, and the usage records settle — with the tampering peer earning
// nothing.
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"hpop/internal/adversary"
	"hpop/internal/nocdn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The content provider with a small site.
	origin := nocdn.NewOrigin("news.example")
	origin.AddObject("/index.html", []byte("<html><body>today's front page</body></html>"))
	origin.AddObject("/css/site.css", make([]byte, 8<<10))
	origin.AddObject("/img/photo.jpg", make([]byte, 120<<10))
	origin.AddObject("/js/app.js", make([]byte, 30<<10))
	if err := origin.AddPage(nocdn.Page{
		Name:      "front",
		Container: "/index.html",
		Embedded:  []string{"/css/site.css", "/img/photo.jpg", "/js/app.js"},
	}); err != nil {
		return err
	}
	originSrv := httptest.NewServer(origin.Handler())
	defer originSrv.Close()

	// Three recruited HPoP peers (ordinary caching reverse proxies).
	// Each is served through an adversary.Tamper, the malicious-peer seam:
	// the product's Peer has no attack mode, so the byte-flipping happens in
	// a handler wrapped around it (off until switched on below).
	var peers []*nocdn.Peer
	var tampers []*adversary.Tamper
	for i := 0; i < 3; i++ {
		p := nocdn.NewPeer(fmt.Sprintf("peer-%d", i), 32<<20)
		p.SignUp("news.example", originSrv.URL)
		tamper := &adversary.Tamper{Next: p.Handler()}
		tampers = append(tampers, tamper)
		srv := httptest.NewServer(tamper)
		defer srv.Close()
		origin.RegisterPeer(p.ID, srv.URL, float64(10+20*i))
		peers = append(peers, p)
	}

	// A client (the loader script) downloads the page twice.
	loader := &nocdn.Loader{OriginURL: originSrv.URL}
	for view := 1; view <= 2; view++ {
		res, err := loader.LoadPage("front")
		if err != nil {
			return err
		}
		fmt.Printf("view %d: %d objects, %d bytes, tamper=%v, records delivered=%d\n",
			view, len(res.Body), res.TotalBytes(), res.TamperDetected, res.RecordsDelivered)
	}
	pageBytes, _ := origin.TotalPageBytes("front")
	fmt.Printf("origin served %d content bytes (page weight %d) + %d wrapper bytes\n",
		origin.OriginBytes(), pageBytes, origin.WrapperBytes())

	// One peer turns malicious: hash verification catches it and the
	// client falls back to the origin; the page still renders correctly.
	tampers[0].On.Store(true)
	res, err := loader.LoadPage("front")
	if err != nil {
		return err
	}
	fmt.Printf("with tampering peer: detected=%v, fallback objects=%v, page intact=%v\n",
		res.TamperDetected, res.FallbackObjects, len(res.Body) == 4)
	tampers[0].On.Store(false)

	// Peers upload their usage records for payment.
	for _, p := range peers {
		n, err := p.Flush(originSrv.URL)
		if err != nil {
			return err
		}
		acc := origin.AccountingFor(p.ID)
		fmt.Printf("%s: uploaded %d records -> credited %d bytes (rejected %d, suspended %v)\n",
			p.ID, n, acc.CreditedBytes, acc.Rejected, acc.Suspended)
	}
	return nil
}
