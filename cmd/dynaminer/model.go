package main

import (
	"flag"
	"fmt"

	"dynaminer"
)

// runModel dispatches the model artifact tooling: inspecting a saved
// model.
func runModel(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: dynaminer model info <model-path>")
	}
	switch args[0] {
	case "info":
		return runModelInfo(args[1:])
	default:
		return fmt.Errorf("unknown model subcommand %q", args[0])
	}
}

// runModelInfo prints a saved model's shape and configuration.
func runModelInfo(args []string) error {
	fs := flag.NewFlagSet("model info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: dynaminer model info <model-path>")
	}
	path := fs.Arg(0)
	clf, err := dynaminer.LoadFile(path)
	if err != nil {
		return err
	}
	info := clf.Info()
	fmt.Printf("path:       %s\n", path)
	fmt.Printf("trees:      %d\n", info.Trees)
	fmt.Printf("nodes:      %d\n", info.Nodes)
	fmt.Printf("features:   %d\n", info.Features)
	fmt.Printf("config:     trees=%d max-features=%d min-samples-leaf=%d max-depth=%d seed=%d\n",
		info.Config.NumTrees, info.Config.MaxFeatures, info.Config.MinSamplesLeaf,
		info.Config.MaxDepth, info.Config.Seed)
	return nil
}
