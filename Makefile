GO ?= go

.PHONY: check build test vet fmt lint race audit serve serve-smoke bakeoff-smoke

# Full verification: everything CI and the roadmap's tier-1 gate expect.
check: build vet fmt lint race audit serve-smoke bakeoff-smoke

# Run the experiment service on localhost with a persistent result cache
# (see DESIGN.md §10 and the README curl session).
serve:
	$(GO) run ./cmd/spinelessd -addr 127.0.0.1:8080 -store results/store

# End-to-end determinism-cache proof: build spinelessd, boot it on an
# ephemeral port with a throwaway store, push one tiny fig4-style cell
# through the HTTP API, and assert the second submit is a cache hit with
# byte-identical result JSON and zero new simulator events. Ends with the
# telemetry smoke: an observed run must appear with traffic on the
# /v1/telemetry stream and drain from it after cancel, and the telemetry
# flag must be hash-exempt (observed resubmit of a cached spec is a hit).
serve-smoke:
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/spinelessd ./cmd/spinelessd && \
	$$tmp/spinelessd -smoke; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# Flat-topology bake-off gate: the full five-fabric matrix at paper scale
# with a tiny workload — byte-identical scorecards on 1 and 4 cell
# workers, no non-finite cells, and an audited De Bruijn self-routing run.
bakeoff-smoke:
	$(GO) run ./cmd/bakeoff -smoke >/dev/null

# Audited driver runs: every packet simulation under the runtime invariant
# auditor (internal/audit), plus fig5's netsim/flowsim/fluid differential
# cross-validation — small scales keep the gate fast. See DESIGN.md §9.
audit:
	$(GO) run ./cmd/fig4 -audit -scale 4 -window 0.002 -maxflows 120 >/dev/null
	$(GO) run ./cmd/fig5 -audit -scale 4 >/dev/null
	$(GO) run ./cmd/fig6 -audit -supernodes 5,6 -tors 3 -ports 20 >/dev/null
	$(GO) run ./cmd/failures -audit -live -flows 120 -fractions 0.05 >/dev/null
	$(GO) run ./cmd/failures -audit -flows 120 -fractions 0.05 >/dev/null

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Custom invariant checkers, run one package at a time. `go run
# ./cmd/spinelint -list` prints the catalog; DESIGN.md §7 says which runtime
# gates cover the bug classes no checker looks for.
lint:
	$(GO) run ./cmd/spinelint ./...

race:
	$(GO) test -race ./...
