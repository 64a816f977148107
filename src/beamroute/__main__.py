from beamroute.cli import main
raise SystemExit(main())
