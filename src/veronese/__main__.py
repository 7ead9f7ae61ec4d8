"""Run the CLI via `python -m veronese`."""
from .cli import run

if __name__ == "__main__":
    run()
